// The round engine's contract: bit-identical chain content, SV values and
// ledger counters for any pool size, equal to the frozen vectors, and a
// scratch arena that really is reusable.

#include "core/round_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "core/session_summary.h"
#include "frozen_sessions.h"
#include "obs/json_reader.h"
#include "obs/round_ledger.h"

namespace bcfl::core {
namespace {

BcflConfig EngineConfig() {
  BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 3;
  config.rounds = 2;
  config.num_groups = 2;
  config.seed = 21;
  config.seed_e = 5;
  config.sigma = 0.0;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  return config;
}

Result<BcflRunResult> RunWith(BcflConfig config, SessionSummary* summary) {
  auto coordinator = BcflCoordinator::Create(config);
  if (!coordinator.ok()) return coordinator.status();
  auto result = (*coordinator)->Run();
  if (result.ok()) {
    *summary = SummarizeSession((*coordinator)->engine().CanonicalChain(),
                                *result);
  }
  return result;
}

TEST(RoundEngineTest, ScratchResetKeepsBufferStorage) {
  RoundScratch scratch;
  scratch.Reset(3);
  ASSERT_EQ(scratch.slots.size(), 3u);
  scratch.slots[1].active = true;
  scratch.slots[1].encoded.assign(650, 7);
  scratch.slots[1].masked.assign(650, 9);
  scratch.slots[1].payload.assign(5000, 1);
  scratch.slots[1].group_members = {0, 1};
  const size_t encoded_cap = scratch.slots[1].encoded.capacity();
  const size_t masked_cap = scratch.slots[1].masked.capacity();
  const size_t payload_cap = scratch.slots[1].payload.capacity();
  const uint64_t* encoded_data = scratch.slots[1].encoded.data();

  scratch.Reset(3);
  // Per-round state cleared...
  EXPECT_FALSE(scratch.slots[1].active);
  EXPECT_TRUE(scratch.slots[1].group_members.empty());
  // ...but the buffers keep their storage: no churn from round 2 on.
  EXPECT_GE(scratch.slots[1].encoded.capacity(), encoded_cap);
  EXPECT_GE(scratch.slots[1].masked.capacity(), masked_cap);
  EXPECT_GE(scratch.slots[1].payload.capacity(), payload_cap);
  EXPECT_EQ(scratch.slots[1].encoded.data(), encoded_data);
}

TEST(RoundEngineTest, ChainContentIsPoolSizeInvariant) {
  // The tentpole guarantee: runs at any pool size produce the same SV
  // values, the same global model and the same canonical chain, block for
  // block — and that chain is the one the serial round loop committed.
  BcflConfig config = EngineConfig();
  config.pool_threads = 1;
  SessionSummary single_summary;
  auto single = RunWith(config, &single_summary);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single_summary.ToJson(), frozen::kCleanSession);

  for (size_t threads : {2u, 8u}) {
    config.pool_threads = threads;
    SessionSummary pooled_summary;
    auto pooled = RunWith(config, &pooled_summary);
    ASSERT_TRUE(pooled.ok()) << "pool_threads=" << threads;
    EXPECT_EQ(single->total_sv, pooled->total_sv)
        << "pool_threads=" << threads;
    EXPECT_EQ(single->per_round_sv, pooled->per_round_sv)
        << "pool_threads=" << threads;
    EXPECT_EQ(single->global_weights, pooled->global_weights)
        << "pool_threads=" << threads;
    EXPECT_EQ(single->round_accuracies, pooled->round_accuracies)
        << "pool_threads=" << threads;
    EXPECT_EQ(single->blocks_committed, pooled->blocks_committed)
        << "pool_threads=" << threads;
    EXPECT_EQ(single->total_transactions, pooled->total_transactions)
        << "pool_threads=" << threads;
    EXPECT_EQ(single_summary.ToJson(), pooled_summary.ToJson())
        << "pool_threads=" << threads;
  }
}

std::vector<obs::JsonValue> ReadLedger(const std::string& path) {
  std::vector<obs::JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto value = obs::ParseJson(line);
    EXPECT_TRUE(value.ok()) << line;
    if (value.ok()) records.push_back(std::move(value).value());
  }
  return records;
}

Result<BcflRunResult> RunWithLedger(BcflConfig config,
                                    const std::string& ledger_path) {
  auto coordinator = BcflCoordinator::Create(config);
  if (!coordinator.ok()) return coordinator.status();
  obs::RoundLedger ledger;
  BCFL_RETURN_IF_ERROR(ledger.Open(ledger_path));
  (*coordinator)->set_round_ledger(&ledger);
  return (*coordinator)->Run();
}

TEST(RoundEngineTest, LedgerCountersArePoolSizeInvariant) {
  // Phase *timings* differ by construction; every protocol-visible
  // counter — the SV vector, dropouts, recoveries, fault events,
  // sig-cache lookups, blocks, transactions — must not.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string single_path = (dir / "bcfl_re_ledger_pool1.jsonl").string();
  const std::string pooled_path = (dir / "bcfl_re_ledger_pool4.jsonl").string();

  BcflConfig config = EngineConfig();
  config.rounds = 3;
  config.fault_plan = *fault::FaultPlan::Parse("crash owner 2 @1");
  config.pool_threads = 1;
  ASSERT_TRUE(RunWithLedger(config, single_path).ok());
  config.pool_threads = 4;
  ASSERT_TRUE(RunWithLedger(config, pooled_path).ok());

  auto single = ReadLedger(single_path);
  auto pooled = ReadLedger(pooled_path);
  std::filesystem::remove(single_path);
  std::filesystem::remove(pooled_path);
  ASSERT_EQ(single.size(), 3u);
  ASSERT_EQ(pooled.size(), 3u);

  auto render = [](const obs::JsonValue& v) {
    std::ostringstream out;
    out.precision(17);
    if (v.is_number()) {
      out << v.number;
    } else if (v.is_string()) {
      out << v.string;
    } else if (v.is_array()) {
      for (const auto& e : v.array) {
        out << (e.is_number() ? std::to_string(e.number) : e.string) << ",";
      }
    }
    return out.str();
  };
  for (size_t r = 0; r < 3; ++r) {
    for (const char* key : {"round", "sv", "dropouts", "recovered",
                            "fault_events", "sig_cache_lookups", "accuracy",
                            "blocks_committed", "transactions"}) {
      const auto* lhs = single[r].Find(key);
      const auto* rhs = pooled[r].Find(key);
      ASSERT_NE(lhs, nullptr) << key;
      ASSERT_NE(rhs, nullptr) << key;
      EXPECT_EQ(render(*lhs), render(*rhs)) << "round " << r << " " << key;
    }
    // Both report the per-owner training spans and the fan-out wall.
    for (const auto& record : {single[r], pooled[r]}) {
      const auto* phases = record.Find("phase_us");
      ASSERT_NE(phases, nullptr);
      EXPECT_NE(phases->Find("span.fl.local_update_us"), nullptr);
      EXPECT_NE(phases->Find("span.fl.owner_fanout_us"), nullptr);
    }
  }
}

TEST(RoundEngineTest, DefaultConfigUsesParallelEngine) {
  BcflConfig config = EngineConfig();
  config.pool_threads = 2;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  EXPECT_EQ((*coordinator)->pool_threads_in_use(), 2u);
  ASSERT_TRUE((*coordinator)->Run().ok());
}

}  // namespace
}  // namespace bcfl::core
