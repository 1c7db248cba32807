#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/round_ledger.h"
#include "obs/trace.h"

namespace bcfl::obs {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(RollingSvVolatilityTest, SampleStddevOverTrailingWindow) {
  const std::vector<std::vector<double>> history = {
      {1.0, 2.0}, {3.0, 2.0}, {5.0, 2.0}};
  // Window 2: owner 0 sees {3, 5} -> sample stddev sqrt(2); owner 1 is
  // perfectly stable.
  std::vector<double> v = RollingSvVolatility(history, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  // Window larger than the history uses everything: {1, 3, 5} -> 2.
  v = RollingSvVolatility(history, 10);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  // Window 0 means "all".
  EXPECT_DOUBLE_EQ(RollingSvVolatility(history, 0)[0], 2.0);
}

TEST(RollingSvVolatilityTest, WarmupAndEmptyEdges) {
  EXPECT_TRUE(RollingSvVolatility({}, 5).empty());
  const std::vector<std::vector<double>> one = {{0.4, 0.6}};
  std::vector<double> v = RollingSvVolatility(one, 5);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(RoundLedgerTest, AppendRequiresOpen) {
  RoundLedger ledger;
  RoundRecord record;
  EXPECT_FALSE(ledger.Append(record).ok());
}

TEST(RoundLedgerTest, AppendsParseableRecordsWithVolatility) {
  const std::string path = TempPath("ledger_unit.jsonl");
  RoundLedger ledger(/*volatility_window=*/3);
  ASSERT_TRUE(ledger.Open(path).ok());

  for (uint64_t r = 0; r < 3; ++r) {
    RoundRecord record;
    record.round = r;
    record.phase_us["span.fl.train_us"] = 100.0 + static_cast<double>(r);
    record.phase_us["span.chain.block_commit_us"] = 50.0;
    record.sig_cache_hit_rate = 0.75;
    record.sig_cache_lookups = 16;
    record.sv = {0.1 * static_cast<double>(r + 1), 0.2};
    record.accuracy = 0.9;
    record.blocks_committed = 1;
    record.transactions = 4;
    if (r == 1) {
      record.fault_events = {"round 1: crash owner 0"};
      record.dropouts = {0};
      record.recovered = {0};
    }
    ASSERT_TRUE(ledger.Append(record).ok());
  }
  EXPECT_EQ(ledger.rounds_written(), 3u);
  ASSERT_EQ(ledger.last_volatility().size(), 2u);
  // Owner 0 scored {0.1, 0.2, 0.3}: sample stddev 0.1.
  EXPECT_NEAR(ledger.last_volatility()[0], 0.1, 1e-12);
  EXPECT_NEAR(ledger.last_volatility()[1], 0.0, 1e-12);
  ledger.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->Find("round")->number,
                     static_cast<double>(i));
    EXPECT_DOUBLE_EQ(
        parsed->Find("phase_us")->Find("span.fl.train_us")->number,
        100.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(parsed->Find("sig_cache_hit_rate")->number, 0.75);
    ASSERT_EQ(parsed->Find("sv")->array.size(), 2u);
    ASSERT_EQ(parsed->Find("sv_volatility")->array.size(), 2u);
    EXPECT_TRUE(parsed->Find("sv_volatility_mean")->is_number());
  }
  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->Find("fault_events")->array.size(), 1u);
  EXPECT_EQ(second->Find("fault_events")->array[0].string,
            "round 1: crash owner 0");
  EXPECT_DOUBLE_EQ(second->Find("dropouts")->array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(second->Find("recovered")->array[0].number, 0.0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Two owners' SVs per round for the resume tests. Owner 0's values
/// round at %.6f, and a volatility window primed with the rounded values
/// prints a different round-3 line than one primed with these.
const std::vector<std::vector<double>> kResumeSv = {
    {0.8399511, 0.5}, {0.4896939, 0.5}, {0.4693197, 0.5}, {0.70338259, 0.5}};

RoundRecord ResumeRecord(uint64_t round) {
  RoundRecord record;
  record.round = round;
  record.sv = kResumeSv[round];
  return record;
}

/// Writes every kResumeSv round to `path` without interruption.
std::vector<std::string> WriteUninterruptedLedger(const std::string& path) {
  RoundLedger ledger(/*volatility_window=*/3);
  EXPECT_TRUE(ledger.Open(path).ok());
  for (uint64_t r = 0; r < kResumeSv.size(); ++r) {
    EXPECT_TRUE(ledger.Append(ResumeRecord(r)).ok());
  }
  ledger.Close();
  return ReadLines(path);
}

TEST(RoundLedgerTest, OpenForResumeKeepsRecordsAndTruncatesTheRest) {
  const std::string path = TempPath("ledger_resume_keep.jsonl");
  const std::vector<std::string> full = WriteUninterruptedLedger(path);
  ASSERT_EQ(full.size(), 4u);
  // A kill tore the next record half way.
  { std::ofstream(path, std::ios::app) << full[0].substr(0, 20); }

  RoundLedger ledger(3);
  ASSERT_TRUE(ledger.OpenForResume(path, 4, kResumeSv).ok());
  EXPECT_EQ(ledger.rounds_written(), 4u);
  ledger.Close();
  EXPECT_EQ(ReadFile(path), full[0] + "\n" + full[1] + "\n" + full[2] +
                                "\n" + full[3] + "\n");

  ASSERT_TRUE(ledger.OpenForResume(path, 2, kResumeSv).ok());
  EXPECT_EQ(ledger.rounds_written(), 2u);
  ledger.Close();
  EXPECT_EQ(ReadFile(path), full[0] + "\n" + full[1] + "\n");
}

TEST(RoundLedgerTest, OpenForResumeFailsClosed) {
  const std::string path = TempPath("ledger_resume_short.jsonl");
  const std::vector<std::string> full = WriteUninterruptedLedger(path);
  // Two whole records and a torn third: three are not there.
  const std::string torn =
      full[0] + "\n" + full[1] + "\n" + full[2].substr(0, 9);
  { std::ofstream(path, std::ios::trunc) << torn; }
  RoundLedger ledger(3);
  EXPECT_TRUE(ledger.OpenForResume(path, 3, kResumeSv).IsCorruption());
  EXPECT_FALSE(ledger.is_open());
  // An SV history shorter than the kept records is refused before the
  // file is touched.
  EXPECT_TRUE(ledger.OpenForResume(path, 2, {kResumeSv[0]})
                  .IsInvalidArgument());
  EXPECT_EQ(ReadFile(path), torn);
}

TEST(RoundLedgerTest, AppendAfterResumeWritesTheUninterruptedLine) {
  const std::string path = TempPath("ledger_resume_append.jsonl");
  const std::vector<std::string> full = WriteUninterruptedLedger(path);
  RoundLedger ledger(3);
  ASSERT_TRUE(ledger.OpenForResume(path, 3, kResumeSv).ok());
  ASSERT_TRUE(ledger.Append(ResumeRecord(3)).ok());
  ledger.Close();
  EXPECT_EQ(ReadLines(path), full);

  // Priming with the records' own %.6f-rounded "sv" arrays would not.
  std::vector<std::vector<double>> rounded;
  for (size_t r = 0; r < 3; ++r) {
    auto parsed = ParseJson(full[r]);
    ASSERT_TRUE(parsed.ok());
    rounded.emplace_back();
    for (const JsonValue& v : parsed->Find("sv")->array) {
      rounded.back().push_back(v.number);
    }
  }
  ASSERT_TRUE(ledger.OpenForResume(path, 3, rounded).ok());
  ASSERT_TRUE(ledger.Append(ResumeRecord(3)).ok());
  ledger.Close();
  EXPECT_NE(ReadLines(path)[3], full[3]);
}

TEST(RoundLedgerTest, PhaseDeltasKeepOnlyMovedLatencyHistograms) {
  MetricsRegistry registry;
  Histogram& moved = registry.GetHistogram("span.fl.train_us");
  registry.GetHistogram("span.fl.idle_us");
  Histogram& sizes = registry.GetHistogram("chain.block_bytes");
  moved.Observe(10.0);
  const MetricsSnapshot start = registry.Snapshot();
  moved.Observe(5.0);
  sizes.Observe(4096.0);
  registry.GetHistogram("secureagg.mask_us").Observe(2.5);  // Mid-window.

  std::map<std::string, double> phase_us;
  AddPhaseDeltas(start, registry.Snapshot(), &phase_us);
  EXPECT_EQ(phase_us, (std::map<std::string, double>{
                          {"secureagg.mask_us", 2.5},
                          {"span.fl.train_us", 5.0}}));

  // A second window adds to the first.
  const MetricsSnapshot second = registry.Snapshot();
  moved.Observe(1.0);
  AddPhaseDeltas(second, registry.Snapshot(), &phase_us);
  EXPECT_DOUBLE_EQ(phase_us["span.fl.train_us"], 6.0);
}

core::BcflConfig FaultedRewardConfig() {
  core::BcflConfig config;
  config.num_owners = 5;
  config.num_miners = 3;
  config.rounds = 3;
  config.num_groups = 2;
  config.digits.num_instances = 400;
  config.reward_pool = 50000;
  auto plan = fault::FaultPlan::Parse("crash owner 1 @1");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (plan.ok()) config.fault_plan = *plan;
  return config;
}

/// Runs `config` with a ledger at `path` and returns its parsed records.
/// `after_create` runs between Create() and Run().
std::vector<JsonValue> RunLedgered(const core::BcflConfig& config,
                                   const std::string& path,
                                   void (*after_create)() = nullptr) {
  RoundLedger ledger;
  EXPECT_TRUE(ledger.Open(path).ok());
  auto coordinator = core::BcflCoordinator::Create(config);
  EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  if (!coordinator.ok()) return {};
  if (after_create != nullptr) after_create();
  (*coordinator)->set_round_ledger(&ledger);
  auto result = (*coordinator)->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ledger.Close();
  std::vector<JsonValue> records;
  for (const std::string& line : ReadLines(path)) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) records.push_back(std::move(parsed).value());
  }
  std::remove(path.c_str());
  return records;
}

// End-to-end acceptance: a faulted session with a reward pool must emit
// exactly one record per FL round, with the dropout, its fault events
// and the recovery on the right round, per-phase latencies filled in
// under their histogram names, and the reward phase folded into the
// final round's record.
TEST(RoundLedgerCoordinatorTest, OneRecordPerRoundWithFaultsAndReward) {
  const std::vector<JsonValue> records =
      RunLedgered(FaultedRewardConfig(), TempPath("ledger_e2e.jsonl"));
  ASSERT_EQ(records.size(), 3u);  // One record per round, reward included.

  for (size_t r = 0; r < records.size(); ++r) {
    const JsonValue& record = records[r];
    EXPECT_DOUBLE_EQ(record.Find("round")->number, static_cast<double>(r));
    const JsonValue* phases = record.Find("phase_us");
    ASSERT_NE(phases, nullptr);
    for (const char* phase :
         {"span.fl.train_us", "span.fl.owner_fanout_us",
          "span.fl.local_update_us", "span.fl.tx_admission_us",
          "secureagg.mask_us", "span.chain.block_commit_us",
          "chain.commit_us", "span.contract.round_eval_us",
          "span.fl.eval_us"}) {
      const JsonValue* us = phases->Find(phase);
      ASSERT_NE(us, nullptr) << "missing phase " << phase << " in round "
                             << r;
      EXPECT_GT(us->number, 0.0);
    }
    // The round span closes after its record is written.
    EXPECT_EQ(phases->Find("span.fl.round_us"), nullptr);
    // The recovery runs only in the faulted round, the reward phase only
    // after the last one.
    EXPECT_EQ(phases->Find("span.fl.recover_phase_us") != nullptr, r == 1)
        << "round " << r;
    EXPECT_EQ(phases->Find("span.fl.reward_phase_us") != nullptr, r == 2)
        << "round " << r;
    EXPECT_EQ(record.Find("sv")->array.size(), 5u);
    EXPECT_EQ(record.Find("sv_volatility")->array.size(), 5u);
    EXPECT_GT(record.Find("accuracy")->number, 0.0);
    EXPECT_GT(record.Find("blocks_committed")->number, 0.0);
    EXPECT_GT(record.Find("transactions")->number, 0.0);
    EXPECT_GT(record.Find("sig_cache_lookups")->number, 0.0);
  }

  // Round 1 carries the injected dropout end to end.
  const JsonValue& faulted = records[1];
  ASSERT_EQ(faulted.Find("dropouts")->array.size(), 1u);
  EXPECT_DOUBLE_EQ(faulted.Find("dropouts")->array[0].number, 1.0);
  ASSERT_EQ(faulted.Find("recovered")->array.size(), 1u);
  EXPECT_DOUBLE_EQ(faulted.Find("recovered")->array[0].number, 1.0);
  EXPECT_FALSE(faulted.Find("fault_events")->array.empty());
  // The retired owner scores 0 from the dropout round on.
  EXPECT_DOUBLE_EQ(faulted.Find("sv")->array[1].number, 0.0);

  // Fault-free rounds carry no fault fields.
  EXPECT_TRUE(records[0].Find("dropouts")->array.empty());
  // SV volatility is live by round 2 (three samples of a noisy vector).
  EXPECT_GT(records[2].Find("sv_volatility_mean")->number, 0.0);
}

// The ledger and /metrics agree by construction: every phase key names a
// registered latency histogram, and with the registry zeroed before Run()
// the records together hold all of that histogram's time.
TEST(RoundLedgerCoordinatorTest, PhaseSumsEqualHistogramSums) {
  const std::vector<JsonValue> records =
      RunLedgered(FaultedRewardConfig(), TempPath("ledger_sums.jsonl"),
                  [] { MetricsRegistry::Global().Reset(); });
  ASSERT_EQ(records.size(), 3u);

  std::map<std::string, double> ledgered;
  for (const JsonValue& record : records) {
    for (const auto& [name, us] : record.Find("phase_us")->object) {
      ledgered[name] += us.number;
    }
  }
  ASSERT_FALSE(ledgered.empty());
  std::map<std::string, double> histogram_sums;
  for (const auto& h : MetricsRegistry::Global().Snapshot().histograms) {
    histogram_sums[h.name] = h.sum;
  }
  for (const auto& [name, total] : ledgered) {
    ASSERT_GE(name.size(), 3u);
    EXPECT_EQ(name.substr(name.size() - 3), "_us") << name;
    const auto it = histogram_sums.find(name);
    ASSERT_NE(it, histogram_sums.end()) << name << " is not a histogram";
    // Each record prints its values with %.6f: at most 5e-7 us of
    // rounding per record on top of the 1e-9 relative float budget.
    EXPECT_NEAR(total, it->second,
                1e-9 * it->second + 5e-7 * static_cast<double>(records.size()))
        << name;
  }
}

// Nothing is timed with observability off, so nothing is ledgered as if
// it had been: every record's phase map is empty.
TEST(RoundLedgerCoordinatorTest, ObservabilityOffLedgersNoPhases) {
  struct ObsOff {
    ObsOff() {
      MetricsRegistry::set_enabled(false);
      Tracer::Global().set_enabled(false);
    }
    ~ObsOff() {
      MetricsRegistry::set_enabled(true);
      Tracer::Global().set_enabled(true);
    }
  } obs_off;
  const std::vector<JsonValue> records =
      RunLedgered(FaultedRewardConfig(), TempPath("ledger_obs_off.jsonl"));
  ASSERT_EQ(records.size(), 3u);
  for (const JsonValue& record : records) {
    ASSERT_NE(record.Find("phase_us"), nullptr);
    EXPECT_TRUE(record.Find("phase_us")->object.empty());
    EXPECT_EQ(record.Find("sv")->array.size(), 5u);
  }
}

}  // namespace
}  // namespace bcfl::obs
