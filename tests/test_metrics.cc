#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(c.name(), "test.counter");
}

TEST(CounterTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("shared");
  Counter& b = registry.GetCounter("shared");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
}

TEST(CounterTest, ConcurrentAddsUnderThreadPool) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("concurrent");
  ThreadPool pool(8);
  constexpr size_t kIters = 10000;
  pool.ParallelFor(kIters, [&](size_t) { c.Add(); }, /*grain=*/16);
  EXPECT_EQ(c.Value(), kIters);
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("acc");
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(0.5);
  g.Set(0.875);
  EXPECT_DOUBLE_EQ(g.Value(), 0.875);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat", {1.0, 10.0, 100.0});
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), std::numeric_limits<double>::infinity());
  h.Observe(2.0);
  h.Observe(4.0);
  h.Observe(60.0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 66.0);
  EXPECT_DOUBLE_EQ(h.Min(), 2.0);
  EXPECT_DOUBLE_EQ(h.Max(), 60.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 22.0);
}

TEST(HistogramTest, BucketAssignmentIncludingOverflow) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("buckets", {1.0, 10.0});
  h.Observe(0.5);   // <= 1 -> bucket 0.
  h.Observe(1.0);   // boundary is inclusive -> bucket 0.
  h.Observe(5.0);   // bucket 1.
  h.Observe(999.0); // overflow bucket.
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(HistogramTest, PercentileOrderingIsSane) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("pct");  // Default latency grid.
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  double p50 = h.Percentile(0.5);
  double p90 = h.Percentile(0.9);
  double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p99, h.bounds().back());
}

TEST(HistogramTest, ConcurrentObservesUnderThreadPool) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("conc", {10.0, 100.0, 1000.0});
  ThreadPool pool(8);
  constexpr size_t kIters = 10000;
  pool.ParallelFor(kIters,
                   [&](size_t i) { h.Observe(static_cast<double>(i % 50)); },
                   /*grain=*/16);
  EXPECT_EQ(h.Count(), kIters);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 49.0);
}

TEST(HistogramTest, FirstRegistrationBoundsWin) {
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("bounds", {1.0, 2.0});
  Histogram& b = registry.GetHistogram("bounds", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Gauge& g = registry.GetGauge("g");
  Histogram& h = registry.GetHistogram("h", {10.0});
  c.Add(5);
  g.Set(1.5);
  h.Observe(3.0);
  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), std::numeric_limits<double>::infinity());
  // Same instrument objects still answer for the names.
  EXPECT_EQ(&registry.GetCounter("c"), &c);
}

TEST(MetricsRegistryTest, DisabledUpdatesAreDropped) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("gated");
  Histogram& h = registry.GetHistogram("gated_h", {10.0});
  MetricsRegistry::set_enabled(false);
  c.Add(100);
  h.Observe(1.0);
  MetricsRegistry::set_enabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(MetricsRegistryTest, JsonExportContainsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("chain.blocks").Add(3);
  registry.GetGauge("fl.acc").Set(0.75);
  Histogram& h = registry.GetHistogram("lat_us", {10.0, 100.0});
  h.Observe(5.0);
  h.Observe(50.0);
  std::string json = registry.ToJsonString();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"chain.blocks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fl.acc\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, EmptyHistogramExportOmitsMinMax) {
  MetricsRegistry registry;
  registry.GetHistogram("never_hit", {1.0});
  std::string json = registry.ToJsonString();
  EXPECT_NE(json.find("\"never_hit\""), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ScopedLatencyTest, RecordsOneObservation) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("scoped_us");
  { ScopedLatency latency(h); }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.Max(), 0.0);
}

TEST(ExporterTest, WritesBothArtifacts) {
  MetricsRegistry registry;
  registry.GetCounter("x").Add(2);
  Tracer tracer;
  { ScopedSpan span(tracer, "phase", "test"); }
  ExportPaths paths;
  paths.metrics_json = "test_metrics_out.json";
  paths.trace_json = "test_trace_out.json";
  Status st = ExportTo(registry, tracer, paths);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::ifstream metrics(paths.metrics_json);
  ASSERT_TRUE(metrics.good());
  std::stringstream m;
  m << metrics.rdbuf();
  EXPECT_NE(m.str().find("\"x\":2"), std::string::npos);

  std::ifstream trace(paths.trace_json);
  ASSERT_TRUE(trace.good());
  std::stringstream t;
  t << trace.rdbuf();
  EXPECT_NE(t.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.str().find("\"phase\""), std::string::npos);

  std::remove(paths.metrics_json.c_str());
  std::remove(paths.trace_json.c_str());
}

TEST(ExporterTest, UnwritablePathFails) {
  MetricsRegistry registry;
  Tracer tracer;
  ExportPaths paths;
  paths.metrics_json = "/nonexistent-dir/metrics.json";
  Status st = ExportTo(registry, tracer, paths);
  EXPECT_FALSE(st.ok());
}

TEST(GlobalRegistryTest, IsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(SnapshotTest, CapturesEveryInstrumentSelfConsistently) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(11);
  registry.GetGauge("g").Set(0.25);
  Histogram& h = registry.GetHistogram("h_us", {1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 50.0, 500.0}) h.Observe(v);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c"), 11u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g"), 0.25);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& hs = snapshot.histograms[0];
  EXPECT_EQ(hs.name, "h_us");
  ASSERT_EQ(hs.bucket_counts.size(), 4u);
  // The contract: count is re-derived from the captured buckets, so the
  // snapshot is internally consistent whatever the live shards did in
  // between.
  uint64_t bucket_total = 0;
  for (uint64_t b : hs.bucket_counts) bucket_total += b;
  EXPECT_EQ(hs.count, bucket_total);
  EXPECT_EQ(hs.count, 4u);
  EXPECT_DOUBLE_EQ(hs.sum, 555.5);
  EXPECT_DOUBLE_EQ(hs.min, 0.5);
  EXPECT_DOUBLE_EQ(hs.max, 500.0);
  EXPECT_LE(hs.p50, hs.p90);
  EXPECT_LE(hs.p90, hs.p99);
  EXPECT_GT(hs.p50, 0.0);
}

TEST(SnapshotTest, EmptyHistogramHasZeroQuantiles) {
  MetricsRegistry registry;
  registry.GetHistogram("idle_us", {1.0});
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].p50, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].p99, 0.0);
}

// The memory-order contract under fire (run under TSan via
// scripts/tsan_check.sh): writers hammer relaxed Add/Observe while the
// main thread alternates Snapshot and Reset. Every snapshot must be
// *internally* consistent — bucket-derived count, quantiles inside the
// bucket range — even though its totals race the writers by design.
TEST(SnapshotTest, StressSnapshotAndResetDuringConcurrentAdds) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("stress.c");
  Histogram& h = registry.GetHistogram("stress.h_us", {1.0, 10.0, 100.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  // Stops and joins the writers however the churn ends: a failed ASSERT
  // returns early, and a joinable std::thread's destructor would
  // terminate the whole test binary.
  struct StopAndJoin {
    std::atomic<bool>* stop;
    std::vector<std::thread>* writers;
    ~StopAndJoin() {
      stop->store(true, std::memory_order_relaxed);
      for (auto& w : *writers) w.join();
    }
  };
  {
    const StopAndJoin guard{&stop, &writers};
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          c.Add();
          h.Observe(static_cast<double>((i * 7 + t) % 200));
          ++i;
        }
      });
    }
    for (int iter = 0; iter < 200; ++iter) {
      MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_EQ(snapshot.histograms.size(), 1u);
      const auto& hs = snapshot.histograms[0];
      uint64_t bucket_total = 0;
      for (uint64_t b : hs.bucket_counts) bucket_total += b;
      ASSERT_EQ(hs.count, bucket_total);
      if (hs.count > 0) {
        ASSERT_GE(hs.p99, hs.p50);
        ASSERT_LE(hs.p99, 200.0);
      }
      if (iter % 10 == 9) registry.Reset();
    }
  }
  // Still alive and counting after the churn.
  const uint64_t before = c.Value();
  c.Add();
  EXPECT_EQ(c.Value(), before + 1);
}

}  // namespace
}  // namespace bcfl::obs
