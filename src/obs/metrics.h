#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json_writer.h"

namespace bcfl::obs {

/// Number of cache-line-padded cells each instrument spreads its updates
/// over. Threads hash to a cell, so pool workers incrementing the same
/// counter rarely touch the same line.
inline constexpr size_t kMetricShards = 16;

namespace internal {

/// One cache-line-padded atomic accumulator.
struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

/// Stable per-thread shard index in [0, kMetricShards).
size_t ThreadShard();

/// Process-wide enable flag (relaxed loads on the hot path); on until
/// `MetricsRegistry::set_enabled(false)`.
std::atomic<bool>& EnabledFlag();

}  // namespace internal

/// Monotonic counter, safe for concurrent Add from pool workers.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    cells_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

  std::string name_;
  std::array<internal::ShardCell, kMetricShards> cells_;
};

/// Last-write-wins double gauge (e.g. per-round accuracy).
class Gauge {
 public:
  void Set(double value) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (cumulative-style export, Prometheus-like).
/// Bucket `i` counts observations <= bounds[i]; one implicit overflow
/// bucket catches the rest. Observations are sharded the same way as
/// counters, so concurrent Observe calls from a thread pool are cheap
/// and TSan-clean.
class Histogram {
 public:
  /// Exponential latency grid in microseconds: 1us .. 10s.
  static const std::vector<double>& DefaultLatencyBoundsUs();

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  double Min() const;  ///< +inf when empty.
  double Max() const;  ///< -inf when empty.
  double Mean() const { return Count() == 0 ? 0.0 : Sum() / Count(); }
  /// Linear-interpolated percentile estimate from the bucket counts;
  /// q in [0, 1]. Returns 0 when empty.
  double Percentile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, length bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);
  void Reset();

  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    /// Seeded to +/-infinity so the CAS-combine needs no "first
    /// observation" branch (which would race between shard-mates).
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  std::string name_;
  std::vector<double> bounds_;  ///< Ascending upper bounds.
  std::array<Shard, kMetricShards> shards_;
};

/// Point-in-time copy of every instrument, safe to render (JSON,
/// Prometheus text) without holding the registry lock. Quantiles are
/// pre-estimated so exposition endpoints serve them without touching
/// live shards again.
struct MetricsSnapshot {
  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;          ///< Ascending upper bounds.
    std::vector<uint64_t> bucket_counts; ///< bounds.size() + 1 (overflow).
    uint64_t count = 0;                  ///< Sum of bucket_counts.
    double sum = 0.0;
    double min = 0.0;  ///< Only meaningful when count > 0.
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<HistogramSnapshot> histograms;  ///< Sorted by name.
};

/// Process-wide registry of named instruments.
///
/// Instruments are created on first use and live for the registry's
/// lifetime, so call sites may cache the returned reference (the hot
/// paths resolve names once, outside their loops). Creation takes a
/// mutex; updates are lock-free sharded atomics.
///
/// Memory-order contract (all shard cells use relaxed atomics):
///  - `Add`/`Observe`/`Set` concurrent with `Snapshot`/`WriteJson` are
///    data-race-free; a snapshot may or may not include deltas that were
///    in flight when it started (eventual consistency), and because a
///    histogram updates its count, sum and bucket cells with separate
///    relaxed operations, one snapshot can transiently observe
///    `count != sum(bucket_counts)`. Snapshot() therefore re-derives
///    `count` from the bucket cells so each snapshot is self-consistent.
///  - `Reset` concurrent with `Add`/`Observe` is safe but racy by
///    design: an update that interleaves with the per-cell zeroing may
///    survive the reset or be lost with it (never torn). Quiesce writers
///    first when an exact zero matters; tests and benches do.
///  - No update is ever lost absent a Reset: relaxed fetch_add on the
///    sharded cells is atomic, and Value()/Snapshot() sum every cell.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` must be ascending; empty picks the default latency grid.
  /// The bounds of the first registration win.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Disables (or re-enables) every instrument process-wide; disabled
  /// updates are a single relaxed load. Used to measure instrumentation
  /// overhead, and by `bcfl_sim --obs off`.
  static void set_enabled(bool enabled) {
    internal::EnabledFlag().store(enabled, std::memory_order_relaxed);
  }
  static bool enabled() {
    return internal::EnabledFlag().load(std::memory_order_relaxed);
  }

  /// Zeroes every instrument, keeping registrations (for tests/benches).
  /// See the class comment for the contract under concurrent updates.
  void Reset();

  /// Copies every instrument's current state (see the memory-order
  /// contract above). This is what the HTTP exposition endpoint and the
  /// JSON exporter render, so one scrape touches each live cell once.
  MetricsSnapshot Snapshot() const;

  /// Serialises every instrument as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,...}}}.
  /// `extra` entries are spliced into the top-level object verbatim
  /// (key -> raw JSON value) — e.g. the executed fault schedule of a
  /// chaos run; callers vouch the values are well-formed JSON.
  void WriteJson(JsonWriter* json,
                 const std::map<std::string, std::string>& extra = {}) const;
  std::string ToJsonString() const;
  bool WriteFile(const std::string& path,
                 const std::map<std::string, std::string>& extra = {}) const;

 private:
  mutable std::mutex mu_;  ///< Guards the maps; instruments are stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII stopwatch that records elapsed wall time, in microseconds, into a
/// histogram on destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(&histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bcfl::obs
