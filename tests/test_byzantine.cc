// Byzantine participant hardening, end to end (PR 9): forged shares,
// equivocation, poisoned updates and inconsistent masks are detected,
// slashed on chain, and degrade the round exactly as a crash of the same
// owner would — at any round engine pool size.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "chain/block_log.h"
#include "chain/miner.h"
#include "core/coordinator.h"
#include "core/reward_contract.h"
#include "core/session_summary.h"
#include "core/slash_contract.h"
#include "core/state_keys.h"
#include "fault/fault_plan.h"
#include "frozen_sessions.h"

namespace bcfl::core {
namespace {

/// Six owners so one crash plus one byzantine offender still leaves a
/// Shamir quorum (t = n/2 + 1 = 4).
BcflConfig ByzantineConfig() {
  BcflConfig config;
  config.num_owners = 6;
  config.num_miners = 3;
  config.rounds = 3;
  config.num_groups = 2;
  config.seed = 21;
  config.seed_e = 5;
  config.sigma = 0.0;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  config.update_norm_bound = 5.0;
  return config;
}

/// Runs `plan` on a `pool_threads`-wide round engine; fills `summary`
/// when given.
Result<BcflRunResult> RunPlan(BcflConfig config, const std::string& plan,
                              size_t pool_threads,
                              SessionSummary* summary = nullptr) {
  config.fault_plan = *fault::FaultPlan::Parse(plan);
  config.pool_threads = pool_threads;
  auto coordinator = BcflCoordinator::Create(config);
  if (!coordinator.ok()) return coordinator.status();
  auto result = (*coordinator)->Run();
  if (result.ok() && summary != nullptr) {
    *summary = SummarizeSession((*coordinator)->engine().CanonicalChain(),
                                *result);
  }
  return result;
}

/// The PR's acceptance invariant: a slashed byzantine owner leaves the
/// round's aggregate, SV vector and retirement roster bit-identical to a
/// run where that owner simply crashed.
void ExpectSlashEqualsCrash(const BcflConfig& config,
                            const std::string& byzantine_plan,
                            const std::string& crash_plan,
                            size_t pool_threads) {
  auto byz = RunPlan(config, byzantine_plan, pool_threads);
  ASSERT_TRUE(byz.ok()) << byz.status().ToString();
  auto crash = RunPlan(config, crash_plan, pool_threads);
  ASSERT_TRUE(crash.ok()) << crash.status().ToString();
  EXPECT_EQ(byz->per_round_sv, crash->per_round_sv);
  EXPECT_EQ(byz->total_sv, crash->total_sv);
  EXPECT_EQ(byz->global_weights, crash->global_weights);
  EXPECT_EQ(byz->round_accuracies, crash->round_accuracies);
  EXPECT_EQ(byz->retired_at, crash->retired_at);
  EXPECT_TRUE(crash->slashed_at.empty());
  EXPECT_FALSE(byz->slashed_at.empty());
}

/// Parameterized by the round engine's pool size.
class SlashEqualsCrashTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SlashEqualsCrashTest, BadShareForgerDuringRecovery) {
  // Owner 1 crashes; during its recovery owner 3 reveals a forged share,
  // is convicted on chain, and the round degrades exactly as if owner 3
  // had crashed alongside owner 1.
  BcflConfig config = ByzantineConfig();
  ExpectSlashEqualsCrash(config, "crash owner 1 @1; bad-share owner 3 @1",
                         "crash owner 1 @1; crash owner 3 @1", GetParam());
  auto byz = RunPlan(config, "crash owner 1 @1; bad-share owner 3 @1",
                     GetParam());
  ASSERT_TRUE(byz.ok());
  ASSERT_EQ(byz->slashed_at.size(), 1u);
  EXPECT_EQ(byz->slashed_at.at(3), 1u);
  EXPECT_EQ(byz->slash_transactions, 1u);
  EXPECT_EQ(byz->retired_at.at(3), 1u);
}

TEST_P(SlashEqualsCrashTest, EquivocatingSubmitter) {
  ExpectSlashEqualsCrash(ByzantineConfig(), "equivocate-submit owner 2 @1",
                         "crash owner 2 @1", GetParam());
}

TEST_P(SlashEqualsCrashTest, PoisonedUpdateCaughtByNormGate) {
  // Honest masking hides the poison from inspection; the norm gate on the
  // decoded aggregate flags the group and the audit convicts the poisoner.
  ExpectSlashEqualsCrash(ByzantineConfig(), "poison-update owner 4 @2 *50",
                         "crash owner 4 @2", GetParam());
}

TEST_P(SlashEqualsCrashTest, InconsistentMaskCaughtByNormGate) {
  // Garbage masks never cancel, so the decoded group aggregate explodes;
  // the audit unmasks the members and convicts the inconsistent one.
  ExpectSlashEqualsCrash(ByzantineConfig(), "inconsistent-mask owner 0 @1",
                         "crash owner 0 @1", GetParam());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, SlashEqualsCrashTest,
                         ::testing::Values(size_t{1}, size_t{3}),
                         [](const auto& info) {
                           return "Pool" + std::to_string(info.param);
                         });

TEST(ByzantineTest, SlashIsCommittedOnChainByEveryMiner) {
  BcflConfig config = ByzantineConfig();
  config.fault_plan =
      *fault::FaultPlan::Parse("crash owner 1 @1; bad-share owner 3 @1");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());

  // The conviction and its crash-equivalent records are canonical state,
  // agreed by every miner's replica.
  auto& engine = (*coordinator)->engine();
  EXPECT_TRUE(engine.CanonicalState().Has(keys::Slashed(3)));
  EXPECT_TRUE(engine.CanonicalState().Has(keys::Retired(3)));
  EXPECT_TRUE(engine.CanonicalState().Has(keys::Dropped(1, 3)));
  auto offender_sv = GetDouble(engine.CanonicalState(), keys::RoundSv(1, 3));
  ASSERT_TRUE(offender_sv.ok());
  EXPECT_EQ(*offender_sv, 0.0);
  auto root = engine.miner(0).state().StateRoot();
  for (size_t m = 1; m < engine.num_miners(); ++m) {
    EXPECT_EQ(engine.miner(m).state().StateRoot(), root);
  }
}

TEST(ByzantineTest, EveryAccusationOfOneAuditConvicts) {
  // Owners 0 and 2 share a group in round 1 and both poison it: owner 0
  // at *50, owner 2 just over the bound at *5. The audit accuses both.
  // Owner 0's conviction leaves the group's mean under the bound, so the
  // re-evaluation completes the round before owner 2's accusation
  // executes. The held-open round keeps its updates until round 2
  // completes, so owner 2 is still convicted; its round-1 SV stays as
  // the completed evaluation scored it.
  BcflConfig config = ByzantineConfig();
  config.fault_plan = *fault::FaultPlan::Parse(
      "poison-update owner 0 @1 *50; poison-update owner 2 @1 *5");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::map<uint32_t, uint64_t> convicted = {{0, 1}, {2, 1}};
  EXPECT_EQ(result->slashed_at, convicted);
  EXPECT_EQ(result->retired_at, convicted);
  EXPECT_EQ(result->slash_transactions, 2u);
  EXPECT_EQ(result->per_round_sv[1][0], 0.0);
  EXPECT_NE(result->per_round_sv[1][2], 0.0);
  // Round 2's completion pruned the held-open round's updates.
  const chain::ContractState& state = (*coordinator)->engine().CanonicalState();
  for (uint32_t i = 0; i < config.num_owners; ++i) {
    EXPECT_FALSE(state.Has(keys::Update(1, i))) << "owner " << i;
  }
}

TEST(ByzantineTest, SlashedOwnerRewardIsBurnedNotRedistributed) {
  BcflConfig config = ByzantineConfig();
  config.reward_pool = 1'000'000;
  config.fault_plan =
      *fault::FaultPlan::Parse("crash owner 1 @1; bad-share owner 3 @1");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->rewards.size(), 6u);
  EXPECT_EQ(result->rewards[3], 0u);  // Forfeited.
  EXPECT_GT(result->reward_burned, 0u);
  // Burned + claimed == pool minus the crashed (unclaimable) allocation:
  // the offender's share went to the sink, not to the survivors.
  uint64_t claimed = 0;
  for (uint32_t i = 0; i < 6; ++i) claimed += result->rewards[i];
  EXPECT_LE(claimed + result->reward_burned, 1'000'000u);
  EXPECT_GT(claimed, 0u);
}

TEST(ByzantineTest, MixedByzantinePlanIsPoolSizeInvariant) {
  // Equivocation at round 1 and poisoning at round 2 in one session: every
  // pool size must land the identical chain, the one the serial round
  // loop committed (frozen vector).
  const BcflConfig config = ByzantineConfig();
  const char* plan =
      "equivocate-submit owner 2 @1; poison-update owner 4 @2 *50";
  SessionSummary single_summary;
  auto single = RunPlan(config, plan, 1, &single_summary);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  SessionSummary pooled_summary;
  auto pooled = RunPlan(config, plan, 3, &pooled_summary);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();

  EXPECT_EQ(single->per_round_sv, pooled->per_round_sv);
  EXPECT_EQ(single->total_sv, pooled->total_sv);
  EXPECT_EQ(single->global_weights, pooled->global_weights);
  EXPECT_EQ(single->round_accuracies, pooled->round_accuracies);
  EXPECT_EQ(single->retired_at, pooled->retired_at);
  EXPECT_EQ(single->slashed_at, pooled->slashed_at);
  EXPECT_EQ(single->slash_transactions, pooled->slash_transactions);
  EXPECT_EQ(single->blocks_committed, pooled->blocks_committed);
  EXPECT_EQ(single->total_transactions, pooled->total_transactions);
  EXPECT_EQ(single_summary.ToJson(), frozen::kByzantineSession);
  EXPECT_EQ(pooled_summary.ToJson(), frozen::kByzantineSession);
}

TEST(ByzantineTest, BadShareRewardSessionIsPoolSizeInvariant) {
  // A bad-share conviction during a recovery, then the reward phase:
  // distribution burns the forger's allocation and the survivors claim.
  // The chain tip pins every conviction, allocation and claim record.
  BcflConfig config = ByzantineConfig();
  config.reward_pool = 1'000'000;
  const char* plan = "crash owner 1 @1; bad-share owner 3 @1";
  for (size_t pool_threads : {size_t{1}, size_t{3}}) {
    SessionSummary summary;
    auto result = RunPlan(config, plan, pool_threads, &summary);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(summary.ToJson(), frozen::kBadShareRewardSession)
        << "pool " << pool_threads;
  }
}

TEST(ByzantineTest, BlockLogReplicaReadsBackTheRunResult) {
  // Transparency: a fresh replica that re-executes blocks.log through the
  // public contracts reads back every on-chain field Run() reported — SVs,
  // model, convictions, burn, claims and counters. The validation split
  // is borrowed from the session: no block identifies it.
  BcflConfig config = ByzantineConfig();
  config.reward_pool = 1'000'000;
  config.fault_plan =
      *fault::FaultPlan::Parse("crash owner 1 @1; bad-share owner 3 @1");
  const std::string dir =
      ::testing::TempDir() + "bcfl_transparency_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE((*coordinator)->AttachPersistence({.state_dir = dir}).ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto host = std::make_shared<chain::ContractHost>();
  auto fl = std::make_shared<FlContract>((*coordinator)->test_set());
  ASSERT_TRUE(host->Register(fl).ok());
  ASSERT_TRUE(host->Register(std::make_shared<RewardContract>()).ok());
  ASSERT_TRUE(host->Register(std::make_shared<SlashContract>(fl)).ok());
  chain::Miner replica(0, host);
  auto log = chain::BlockLog::Open(dir + "/blocks.log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const chain::Block& block : log->TakeRecoveredBlocks()) {
    ASSERT_TRUE(replica.CommitBlock(block).ok()) << block.header.height;
  }
  log->Close();
  std::filesystem::remove_all(dir);

  auto on_chain = ReadRunResult(replica.chain(), replica.state());
  ASSERT_TRUE(on_chain.ok()) << on_chain.status().ToString();
  EXPECT_EQ(on_chain->per_round_sv, result->per_round_sv);
  EXPECT_EQ(on_chain->total_sv, result->total_sv);
  EXPECT_EQ(on_chain->global_weights, result->global_weights);
  EXPECT_EQ(on_chain->retired_at, result->retired_at);
  EXPECT_EQ(on_chain->slashed_at, result->slashed_at);
  EXPECT_EQ(on_chain->rewards, result->rewards);
  EXPECT_EQ(on_chain->reward_burned, result->reward_burned);
  EXPECT_EQ(on_chain->blocks_committed, result->blocks_committed);
  EXPECT_EQ(on_chain->total_transactions, result->total_transactions);
  EXPECT_EQ(on_chain->recover_transactions, result->recover_transactions);
  EXPECT_EQ(on_chain->slash_transactions, result->slash_transactions);
  EXPECT_EQ(result->slashed_at, (std::map<uint32_t, uint64_t>{{3, 1}}));
  EXPECT_GT(result->reward_burned, 0u);
  // With the two off-chain results added, the replica's read is the
  // frozen session the hand-kept accumulators once produced.
  on_chain->round_accuracies = result->round_accuracies;
  on_chain->submission_retries = result->submission_retries;
  EXPECT_EQ(SummarizeSession(replica.chain(), *on_chain).ToJson(),
            frozen::kBadShareRewardSession);
}

TEST(ByzantineTest, PoisonWithoutNormBoundGoesUndetected) {
  // The gate is opt-in: with no agreed bound the poisoned round still
  // completes (and converges worse) — documenting why deployments set
  // update_norm_bound.
  BcflConfig config = ByzantineConfig();
  config.update_norm_bound = 0.0;
  auto result = RunPlan(config, "poison-update owner 4 @1 *50", 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->slashed_at.empty());
  EXPECT_TRUE(result->retired_at.empty());
  EXPECT_EQ(result->round_accuracies.size(), 3u);
}

TEST(ByzantineTest, LedgerRecordsSlashesAndAccusations) {
  BcflConfig config = ByzantineConfig();
  config.fault_plan = *fault::FaultPlan::Parse("equivocate-submit owner 2 @1");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  obs::RoundLedger ledger;
  std::string path = ::testing::TempDir() + "byzantine_ledger.jsonl";
  ASSERT_TRUE(ledger.Open(path).ok());
  (*coordinator)->set_round_ledger(&ledger);
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  ledger.Close();

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("\"slashed\":[2]"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"accusations\":1"), std::string::npos);
}

}  // namespace
}  // namespace bcfl::core
