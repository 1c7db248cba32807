#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::obs {
namespace {

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST(TracerTest, RecordsACompletedSpan) {
  Tracer tracer;
  { ScopedSpan span(tracer, "round", "fl"); }
  ASSERT_EQ(tracer.size(), 1u);
  SpanRecord record = tracer.Snapshot()[0];
  EXPECT_EQ(record.name, "round");
  EXPECT_EQ(record.category, "fl");
  EXPECT_EQ(record.parent_id, 0u);
  EXPECT_EQ(record.depth, 0u);
  EXPECT_GT(record.id, 0u);
}

TEST(TracerTest, NestedSpansLinkToTheirParent) {
  Tracer tracer;
  {
    ScopedSpan outer(tracer, "round", "fl");
    { ScopedSpan inner(tracer, "train", "fl"); }
    { ScopedSpan inner2(tracer, "eval", "fl"); }
  }
  ASSERT_EQ(tracer.size(), 3u);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  const SpanRecord* outer = FindSpan(spans, "round");
  const SpanRecord* train = FindSpan(spans, "train");
  const SpanRecord* eval = FindSpan(spans, "eval");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(train, nullptr);
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(train->parent_id, outer->id);
  EXPECT_EQ(eval->parent_id, outer->id);
  EXPECT_EQ(train->depth, 1u);
  // Children close before the parent, so they are recorded first and the
  // parent's duration covers both.
  EXPECT_GE(outer->duration_ns, train->duration_ns + eval->duration_ns);
}

TEST(TracerTest, SpansFromPoolWorkersAreRootsOnTheirThread) {
  Tracer tracer;
  ThreadPool pool(4);
  {
    ScopedSpan outer(tracer, "sweep", "shapley");
    pool.ParallelFor(64, [&](size_t) {
      ScopedSpan worker(tracer, "chunk", "shapley");
    }, /*grain=*/4);
  }
  ASSERT_EQ(tracer.size(), 65u);
  // Worker spans opened on other threads have no parent; the one opened
  // on the caller's thread (ParallelFor runs shards inline too) may nest.
  size_t roots = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "chunk" && span.parent_id == 0) ++roots;
  }
  EXPECT_GT(roots, 0u);
}

TEST(TracerTest, WallClockDurationIsMeasured) {
  Tracer tracer;
  {
    ScopedSpan span(tracer, "sleep", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  SpanRecord record = tracer.Snapshot()[0];
  EXPECT_GE(record.duration_ns, 1'000'000u);  // >= 1ms of the 5ms slept.
}

TEST(TracerTest, AttachedSimClockStampsSpans) {
  Tracer tracer;
  SimClock clock(1000);
  tracer.AttachSimClock(&clock);
  {
    ScopedSpan span(tracer, "mask_round", "secureagg");
    clock.AdvanceMicros(250);
  }
  SpanRecord record = tracer.Snapshot()[0];
  EXPECT_TRUE(record.has_sim_time);
  EXPECT_EQ(record.sim_start_us, 1000u);
  EXPECT_EQ(record.sim_duration_us, 250u);
}

TEST(TracerTest, WithoutSimClockSpansHaveNoSimTime) {
  Tracer tracer;
  { ScopedSpan span(tracer, "a", "test"); }
  EXPECT_FALSE(tracer.Snapshot()[0].has_sim_time);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  { ScopedSpan span(tracer, "ghost", "test"); }
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_enabled(true);
  { ScopedSpan span(tracer, "real", "test"); }
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(TracerTest, ResetDropsCompletedAndInFlightSpans) {
  Tracer tracer;
  { ScopedSpan done(tracer, "done", "test"); }
  uint64_t inflight = tracer.BeginSpan("inflight", "test");
  tracer.Reset();
  tracer.EndSpan(inflight);  // Stale generation: dropped, not recorded.
  EXPECT_EQ(tracer.size(), 0u);
  { ScopedSpan fresh(tracer, "fresh", "test"); }
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.Snapshot()[0].name, "fresh");
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  SimClock clock(10);
  tracer.AttachSimClock(&clock);
  {
    ScopedSpan outer(tracer, "block_commit", "chain");
    ScopedSpan inner(tracer, "proposal \"quoted\"", "chain");
  }
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"block_commit\""), std::string::npos);
  // String values are escaped, so quoted span names stay valid JSON.
  EXPECT_NE(json.find("proposal \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_ts_us\""), std::string::npos);
}

TEST(TracerTest, ConcurrentSpansUnderThreadPool) {
  Tracer tracer;
  ThreadPool pool(8);
  constexpr size_t kSpans = 2000;
  pool.ParallelFor(kSpans, [&](size_t) {
    ScopedSpan span(tracer, "unit", "test");
  }, /*grain=*/8);
  EXPECT_EQ(tracer.size(), kSpans);
}

TEST(GlobalTracerTest, IsASingleton) {
  EXPECT_EQ(&Tracer::Global(), &Tracer::Global());
}

TEST(TracerMetricsSinkTest, ClosedSpansFeedCategoryHistograms) {
  Tracer tracer;
  MetricsRegistry registry;
  tracer.AttachMetrics(&registry);
  { ScopedSpan span(tracer, "mask_round", "secureagg"); }
  { ScopedSpan span(tracer, "mask_round", "secureagg"); }
  { ScopedSpan span(tracer, "commit", "chain"); }
  Histogram& mask = registry.GetHistogram("span.secureagg.mask_round_us");
  Histogram& commit = registry.GetHistogram("span.chain.commit_us");
  EXPECT_EQ(mask.Count(), 2u);
  EXPECT_EQ(commit.Count(), 1u);
  EXPECT_GE(mask.Sum(), 0.0);

  // Detaching stops the flow; the trace buffer still records.
  tracer.AttachMetrics(nullptr);
  { ScopedSpan span(tracer, "commit", "chain"); }
  EXPECT_EQ(commit.Count(), 1u);
  EXPECT_EQ(tracer.size(), 4u);
}

TEST(TracerMetricsSinkTest, GlobalTracerIsAttachedToGlobalRegistry) {
  const std::string name = "span.test.global_sink_probe_us";
  Histogram& h = MetricsRegistry::Global().GetHistogram(name);
  const uint64_t before = h.Count();
  { ScopedSpan span(Tracer::Global(), "global_sink_probe", "test"); }
  EXPECT_EQ(h.Count(), before + 1);
}

}  // namespace
}  // namespace bcfl::obs
