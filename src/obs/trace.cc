#include "obs/trace.h"

#include "obs/metrics.h"  // internal::EnabledFlag

namespace bcfl::obs {

namespace {

/// One not-yet-closed span, parked on its opening thread's stack.
struct ActiveSpan {
  const Tracer* tracer;
  uint64_t generation;
  uint64_t id;
  uint64_t parent_id;
  uint32_t depth;
  std::string name;
  std::string category;
  uint64_t start_ns;
  bool has_sim_time;
  uint64_t sim_start_us;
};

/// Per-thread stack of open spans. One stack serves every tracer: RAII
/// guarantees LIFO destruction order regardless of which tracer a span
/// belongs to, and parent lookup filters by tracer.
std::vector<ActiveSpan>& ThreadStack() {
  static thread_local std::vector<ActiveSpan> stack;
  return stack;
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  static thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    // Global spans double as live phase-latency histograms (scraped by
    // the HTTP exposition endpoint); standalone tracers opt in.
    t->AttachMetrics(&MetricsRegistry::Global());
    return t;
  }();
  return *tracer;
}

Tracer::Tracer()
    : enabled_(internal::EnabledFlag().load(std::memory_order_relaxed)),
      epoch_ns_(SteadyNowNs()) {}

uint64_t Tracer::NowNs() const {
  const int64_t ns =
      SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
  return ns > 0 ? static_cast<uint64_t>(ns) : 0;
}

uint64_t Tracer::BeginSpan(std::string name, std::string category) {
  if (!enabled()) return 0;
  ActiveSpan span;
  span.tracer = this;
  span.generation = generation_.load(std::memory_order_relaxed);
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = 0;
  span.depth = 0;
  std::vector<ActiveSpan>& stack = ThreadStack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->tracer == this && it->generation == span.generation) {
      span.parent_id = it->id;
      span.depth = it->depth + 1;
      break;
    }
  }
  span.name = std::move(name);
  span.category = std::move(category);
  const SimClock* sim = sim_clock_.load(std::memory_order_acquire);
  span.has_sim_time = sim != nullptr;
  span.sim_start_us = sim != nullptr ? sim->NowMicros() : 0;
  span.start_ns = NowNs();
  stack.push_back(std::move(span));
  return stack.back().id;
}

void Tracer::EndSpan(uint64_t token) {
  if (token == 0) return;
  std::vector<ActiveSpan>& stack = ThreadStack();
  // The span is the top of the stack in correct RAII usage; tolerate a
  // mismatched close by searching downwards.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->tracer != this || it->id != token) continue;
    ActiveSpan span = std::move(*it);
    stack.erase(std::next(it).base());
    if (span.generation != generation_.load(std::memory_order_relaxed)) {
      return;  // Tracer was Reset while the span was open; drop it.
    }
    SpanRecord record;
    record.name = std::move(span.name);
    record.category = std::move(span.category);
    record.id = span.id;
    record.parent_id = span.parent_id;
    record.thread_index = ThreadIndex();
    record.depth = span.depth;
    record.start_ns = span.start_ns;
    const uint64_t end_ns = NowNs();
    record.duration_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
    record.has_sim_time = span.has_sim_time;
    if (span.has_sim_time) {
      const SimClock* sim = sim_clock_.load(std::memory_order_acquire);
      record.sim_start_us = span.sim_start_us;
      const uint64_t sim_now =
          sim != nullptr ? sim->NowMicros() : span.sim_start_us;
      record.sim_duration_us =
          sim_now > span.sim_start_us ? sim_now - span.sim_start_us : 0;
    }
    if (MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
        metrics != nullptr) {
      metrics
          ->GetHistogram("span." + record.category + "." + record.name +
                         "_us")
          .Observe(static_cast<double>(record.duration_ns) / 1000.0);
    }
    std::lock_guard<std::mutex> lock(mu_);
    completed_.push_back(std::move(record));
    return;
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_.size();
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  completed_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  sim_clock_.store(nullptr, std::memory_order_release);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
}

void Tracer::WriteChromeTrace(JsonWriter* json) const {
  const std::vector<SpanRecord> spans = Snapshot();
  json->BeginObject();
  json->BeginArray("traceEvents");
  for (const SpanRecord& span : spans) {
    json->BeginObject();
    json->Field("name", span.name);
    json->Field("cat", span.category);
    json->Field("ph", "X");
    json->Field("ts", static_cast<double>(span.start_ns) / 1000.0);
    json->Field("dur", static_cast<double>(span.duration_ns) / 1000.0);
    json->Field("pid", size_t{1});
    json->Field("tid", static_cast<size_t>(span.thread_index));
    json->BeginObject("args");
    json->Field("span_id", static_cast<size_t>(span.id));
    json->Field("parent_id", static_cast<size_t>(span.parent_id));
    json->Field("depth", static_cast<size_t>(span.depth));
    if (span.has_sim_time) {
      json->Field("sim_ts_us", static_cast<size_t>(span.sim_start_us));
      json->Field("sim_dur_us", static_cast<size_t>(span.sim_duration_us));
    }
    json->EndObject();
    json->EndObject();
  }
  json->EndArray();
  json->Field("displayTimeUnit", "ms");
  json->EndObject();
}

std::string Tracer::ToChromeTraceJson() const {
  JsonWriter json;
  WriteChromeTrace(&json);
  return json.str();
}

bool Tracer::WriteChromeTraceFile(const std::string& path) const {
  JsonWriter json;
  WriteChromeTrace(&json);
  return json.WriteFile(path);
}

}  // namespace bcfl::obs
