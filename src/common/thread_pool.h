#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bcfl {

/// Fixed-size worker pool used to parallelise embarrassingly parallel
/// stages: coalition-model utility evaluation in the Shapley module and
/// per-owner local training in the FL driver.
///
/// Tasks are plain `std::function<void()>`; callers that need results wrap
/// them in `std::packaged_task` via `Submit`.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs `fn(i)` for i in [0, count) across the pool and waits for all.
  ///
  /// Indices are dispatched in contiguous chunks of `grain` indices per
  /// task (grain 0 picks one automatically: enough chunks for ~8 tasks
  /// per worker, so a 2^n-sized loop enqueues O(threads) closures
  /// instead of 2^n). If every index fits in a single chunk the loop
  /// runs inline on the calling thread. Exceptions thrown by `fn` are
  /// captured per chunk: a throw ends its own chunk, but every other
  /// chunk still runs to completion before the exception from the
  /// lowest-indexed failing chunk is rethrown to the caller (the same
  /// error a serial loop would surface first). Called from a worker of
  /// any ThreadPool, the loop runs inline on that worker: a pool task
  /// that re-entered ParallelFor would otherwise block on chunks that can
  /// never be scheduled once every worker is parked in the same wait.
  ///
  /// The dispatch itself is allocation-free per chunk: chunks share one
  /// stack-allocated context, the per-chunk closures (context pointer +
  /// chunk index) fit std::function's small-buffer storage, and all
  /// chunks are enqueued under a single lock acquisition. The round
  /// engine calls this once per owner fan-out on the protocol hot path.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn,
                   size_t grain = 0);

  size_t num_threads() const { return workers_.size(); }

  /// Worker count to use when the caller does not specify one:
  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace bcfl
