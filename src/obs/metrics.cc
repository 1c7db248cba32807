#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <thread>

namespace bcfl::obs {

namespace internal {

size_t ThreadShard() {
  // Hash the thread id once per thread; the cached index keeps the hot
  // path at one relaxed fetch_add on a (usually) thread-private line.
  static thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kMetricShards;
  return shard;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

namespace {

/// CAS loop for atomics without a native fetch-min/max/add (double).
template <typename T, typename Combine>
void AtomicCombine(std::atomic<T>* cell, T value, Combine combine) {
  T current = cell->load(std::memory_order_relaxed);
  T next = combine(current, value);
  while (next != current &&
         !cell->compare_exchange_weak(current, next,
                                      std::memory_order_relaxed)) {
    next = combine(current, value);
  }
}

}  // namespace

}  // namespace internal

const std::vector<double>& Histogram::DefaultLatencyBoundsUs() {
  static const std::vector<double> bounds = {
      1,     2,     5,     10,    20,    50,    100,   200,
      500,   1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,
      2e5,   5e5,   1e6,   2e6,   5e6,   1e7};
  return bounds;
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsUs();
  for (auto& shard : shards_) {
    shard.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
  Shard& shard = shards_[internal::ThreadShard()];
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicCombine(&shard.sum, value,
                          [](double a, double b) { return a + b; });
  internal::AtomicCombine(&shard.min, value,
                          [](double a, double b) { return std::min(a, b); });
  internal::AtomicCombine(&shard.max, value,
                          [](double a, double b) { return std::max(a, b); });
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Min() const {
  double out = std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    out = std::min(out, shard.min.load(std::memory_order_relaxed));
  }
  return out;
}

double Histogram::Max() const {
  double out = -std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    out = std::max(out, shard.max.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(name, std::move(bounds))))
             .first;
  }
  return *it->second;
}

namespace {

/// Linear-interpolated percentile over an already-materialised bucket
/// vector, so every quantile of one snapshot agrees with its buckets.
/// The overflow bucket interpolates up to `max_value`, which is read
/// apart from the buckets: a racing Reset can leave it below the
/// bucket's lower bound, so the estimate is kept inside the bucket.
double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& buckets,
                             uint64_t total, double max_value, double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper =
          i < bounds.size() ? bounds[i] : std::max(max_value, lower);
      const double fraction = (target - static_cast<double>(cumulative)) /
                              static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative = next;
  }
  return max_value;
}

}  // namespace

double Histogram::Percentile(double q) const {
  const std::vector<uint64_t> buckets = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  return PercentileFromBuckets(bounds_, buckets, total, Max(), q);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramSnapshot h;
    h.name = name;
    h.bounds = histogram->bounds();
    h.bucket_counts = histogram->BucketCounts();
    // Re-derive the count from the captured buckets: the live count cell
    // is updated by a separate relaxed op, so using it here could
    // disagree with the buckets of this same snapshot.
    for (uint64_t c : h.bucket_counts) h.count += c;
    h.sum = histogram->Sum();
    if (h.count > 0) {
      h.min = histogram->Min();
      h.max = histogram->Max();
      h.p50 = PercentileFromBuckets(h.bounds, h.bucket_counts, h.count,
                                    h.max, 0.50);
      h.p90 = PercentileFromBuckets(h.bounds, h.bucket_counts, h.count,
                                    h.max, 0.90);
      h.p99 = PercentileFromBuckets(h.bounds, h.bucket_counts, h.count,
                                    h.max, 0.99);
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

void MetricsRegistry::WriteJson(
    JsonWriter* json, const std::map<std::string, std::string>& extra) const {
  std::lock_guard<std::mutex> lock(mu_);
  json->BeginObject();
  json->BeginObject("counters");
  for (const auto& [name, counter] : counters_) {
    json->Field(name, static_cast<size_t>(counter->Value()));
  }
  json->EndObject();
  json->BeginObject("gauges");
  for (const auto& [name, gauge] : gauges_) {
    json->Field(name, gauge->Value());
  }
  json->EndObject();
  json->BeginObject("histograms");
  for (const auto& [name, histogram] : histograms_) {
    json->BeginObject(name);
    const uint64_t count = histogram->Count();
    json->Field("count", static_cast<size_t>(count));
    json->Field("sum", histogram->Sum());
    if (count > 0) {
      json->Field("min", histogram->Min());
      json->Field("max", histogram->Max());
      json->Field("mean", histogram->Mean());
      json->Field("p50", histogram->Percentile(0.50));
      json->Field("p90", histogram->Percentile(0.90));
      json->Field("p99", histogram->Percentile(0.99));
    }
    json->BeginArray("bucket_bounds");
    for (double bound : histogram->bounds()) json->Element(bound);
    json->EndArray();
    json->BeginArray("bucket_counts");
    for (uint64_t c : histogram->BucketCounts()) {
      json->Element(static_cast<size_t>(c));
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndObject();
  for (const auto& [key, raw] : extra) json->RawField(key, raw);
  json->EndObject();
}

std::string MetricsRegistry::ToJsonString() const {
  JsonWriter json;
  WriteJson(&json);
  return json.str();
}

bool MetricsRegistry::WriteFile(
    const std::string& path,
    const std::map<std::string, std::string>& extra) const {
  JsonWriter json;
  WriteJson(&json, extra);
  return json.WriteFile(path);
}

}  // namespace bcfl::obs
