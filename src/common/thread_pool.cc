#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace bcfl {

namespace {
thread_local bool tls_pool_worker = false;

/// Shared state for one ParallelFor call, living on the caller's stack.
/// Completion is signalled under `mutex` (not after unlocking) because the
/// caller destroys the context as soon as `remaining` hits zero.
struct ParallelForCtx {
  const std::function<void(size_t)>* fn;
  size_t count;
  size_t grain;
  std::mutex mutex;
  std::condition_variable done;
  size_t remaining;
  std::exception_ptr error;
  size_t error_chunk;
};

void RunParallelForChunk(ParallelForCtx* ctx, size_t c) {
  const size_t begin = c * ctx->grain;
  const size_t end = std::min(begin + ctx->grain, ctx->count);
  std::exception_ptr error;
  try {
    for (size_t i = begin; i < end; ++i) (*ctx->fn)(i);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(ctx->mutex);
  if (error && c < ctx->error_chunk) {
    ctx->error = std::move(error);
    ctx->error_chunk = c;
  }
  if (--ctx->remaining == 0) ctx->done.notify_one();
}
}  // namespace

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  tls_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn,
                             size_t grain) {
  if (count == 0) return;
  if (tls_pool_worker) {
    // Nested ParallelFor: every worker may already be parked waiting on
    // this very call's chunks, so enqueueing would deadlock. Run inline;
    // the per-index work is identical, so results do not change.
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  if (grain == 0) {
    // ~8 chunks per worker: coarse enough that queue traffic is O(threads),
    // fine enough that uneven per-index cost still load-balances.
    grain = std::max<size_t>(1, count / (num_threads() * 8));
  }
  const size_t num_chunks = (count + grain - 1) / grain;
  if (num_chunks <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One stack context shared by every chunk; the per-chunk closures are a
  // {context pointer, chunk index} pair small enough for std::function's
  // inline storage, so the whole dispatch allocates nothing per chunk.
  ParallelForCtx ctx;
  ctx.fn = &fn;
  ctx.count = count;
  ctx.grain = grain;
  ctx.remaining = num_chunks;
  ctx.error_chunk = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t c = 0; c < num_chunks; ++c) {
      tasks_.emplace([pctx = &ctx, c] { RunParallelForChunk(pctx, c); });
    }
  }
  cv_.notify_all();
  // Wait for every chunk before rethrowing: abandoning outstanding chunks
  // on the first failure would leave workers touching the stack context
  // that is about to go out of scope. The rethrown error is always the
  // lowest-indexed failing chunk's, independent of completion order.
  std::unique_lock<std::mutex> lock(ctx.mutex);
  ctx.done.wait(lock, [&ctx] { return ctx.remaining == 0; });
  if (ctx.error) std::rethrow_exception(ctx.error);
}

}  // namespace bcfl
