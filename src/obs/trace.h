#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/json_writer.h"

namespace bcfl::obs {

class MetricsRegistry;

/// One completed span. Times are recorded against two clocks: the
/// steady_clock (real time, ns since the tracer epoch) always, and the
/// attached SimClock (simulated time, us) when one is present — so a
/// trace shows both what the wall paid and where the simulation was.
struct SpanRecord {
  std::string name;      ///< E.g. "round", "coalition_eval".
  std::string category;  ///< Subsystem: "chain", "secureagg", "fl", ...
  uint64_t id = 0;       ///< Unique per tracer, 1-based.
  uint64_t parent_id = 0;  ///< 0 = root span.
  uint32_t thread_index = 0;  ///< Small stable per-thread index.
  uint32_t depth = 0;         ///< Nesting depth on its thread (0 = root).
  uint64_t start_ns = 0;      ///< steady_clock, relative to tracer epoch.
  uint64_t duration_ns = 0;
  bool has_sim_time = false;
  uint64_t sim_start_us = 0;  ///< SimClock::NowMicros at span start.
  uint64_t sim_duration_us = 0;
};

/// Hierarchical span recorder.
///
/// Spans are strictly nested per thread (RAII via ScopedSpan enforces
/// this); parentage is tracked through a thread-local stack, so opening
/// spans from pool workers is safe and needs no coordination. Completed
/// spans land in a mutexed buffer — spans mark *phases* (a round, a
/// block commit, a coalition sweep), not per-element work, so the mutex
/// is cold.
///
/// Disabled tracers (set_enabled(false), or BCFL_OBS=off at startup)
/// reduce Begin/End to one relaxed atomic load.
class Tracer {
 public:
  static Tracer& Global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Attaches the simulation clock whose time stamps every subsequent
  /// span (nullptr detaches). The clock must outlive the spans recorded
  /// against it; Reset() also detaches.
  void AttachSimClock(const SimClock* clock) {
    sim_clock_.store(clock, std::memory_order_release);
  }

  /// Attaches a metrics registry: every span close then also records its
  /// wall duration into the `span.<category>.<name>_us` histogram of
  /// that registry, so phase latencies get live quantiles (and Prometheus
  /// exposition) without a second set of stopwatches at the call sites.
  /// nullptr detaches; the global tracer ships attached to the global
  /// registry. Spans mark phases, not per-element work, so the name
  /// lookup on close is off every hot path.
  void AttachMetrics(MetricsRegistry* registry) {
    metrics_.store(registry, std::memory_order_release);
  }

  /// Opens a span; returns an opaque token (0 when disabled). Spans on
  /// one thread must close in LIFO order — prefer ScopedSpan.
  uint64_t BeginSpan(std::string name, std::string category);
  void EndSpan(uint64_t token);

  size_t size() const;
  std::vector<SpanRecord> Snapshot() const;
  /// Drops recorded spans, restarts the epoch and detaches the SimClock.
  /// Spans still open keep recording but are dropped at EndSpan.
  void Reset();

  /// Chrome trace_event JSON ("X" complete events, ts/dur in wall us;
  /// simulated time rides in args) — loadable in chrome://tracing and
  /// Perfetto.
  void WriteChromeTrace(JsonWriter* json) const;
  std::string ToChromeTraceJson() const;
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  uint64_t NowNs() const;

  std::atomic<bool> enabled_;
  std::atomic<const SimClock*> sim_clock_{nullptr};
  std::atomic<MetricsRegistry*> metrics_{nullptr};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> epoch_ns_;        ///< steady_clock ns at epoch.
  std::atomic<uint64_t> generation_{0};  ///< Bumped by Reset.

  mutable std::mutex mu_;
  std::vector<SpanRecord> completed_;
};

/// RAII span: opens on construction, closes on destruction.
///
///   { obs::ScopedSpan span(obs::Tracer::Global(), "round", "fl"); ... }
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string category)
      : tracer_(&tracer),
        token_(tracer.BeginSpan(std::move(name), std::move(category))) {}
  ~ScopedSpan() {
    if (token_ != 0) tracer_->EndSpan(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t token_;
};

}  // namespace bcfl::obs
