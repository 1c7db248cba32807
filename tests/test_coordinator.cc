#include "core/coordinator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "chain/block_log.h"
#include "chain/merkle.h"
#include "chain/miner.h"
#include "shapley/group_sv.h"
#include "shapley/utility.h"

namespace bcfl::core {
namespace {

BcflConfig SmallConfig() {
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

TEST(CoordinatorTest, CreateRejectsDegenerateConfigs) {
  BcflConfig config = SmallConfig();
  config.num_owners = 1;
  EXPECT_FALSE(BcflCoordinator::Create(config).ok());
  config = SmallConfig();
  config.num_miners = 0;
  EXPECT_FALSE(BcflCoordinator::Create(config).ok());
}

TEST(CoordinatorTest, EndToEndRunProducesConsistentResults) {
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());

  // Shape checks.
  EXPECT_EQ(result->total_sv.size(), 4u);
  EXPECT_EQ(result->per_round_sv.size(), 2u);
  EXPECT_EQ(result->round_accuracies.size(), 2u);
  EXPECT_GT(result->blocks_committed, 0u);
  // Setup tx committed during Create is not counted; 8 update txs are.
  EXPECT_EQ(result->total_transactions, 8u);

  // On-chain totals equal the sum of per-round values.
  for (size_t i = 0; i < 4; ++i) {
    double sum = 0;
    for (const auto& round : result->per_round_sv) sum += round[i];
    EXPECT_NEAR(result->total_sv[i], sum, 1e-9);
  }

  // Two short rounds on 400 instances: the global model must already be
  // meaningfully better than the 0.1 chance level.
  EXPECT_GT(result->round_accuracies.back(), 0.18);
}

TEST(CoordinatorTest, OnChainGroupSvMatchesOffChainReference) {
  const BcflConfig config = SmallConfig();
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());

  // Recompute GroupSV off chain from plain local weights. Local training
  // is deterministic, so each owner's round-r model is retrained here
  // from its own partition and the global model of round r-1 on chain.
  // The state keeps only the latest global model, so each round's is
  // read from a fresh replica that commits the chain one block at a time.
  const std::vector<ml::Dataset> datasets = (*coordinator)->OwnerDatasets();
  const chain::Blockchain& chain = (*coordinator)->engine().CanonicalChain();
  auto host = std::make_shared<chain::ContractHost>();
  ASSERT_TRUE(
      host->Register(std::make_shared<FlContract>((*coordinator)->test_set()))
          .ok());
  chain::Miner replica(0, host);
  ml::Matrix global(datasets[0].num_features() + 1,
                    datasets[0].num_classes());
  shapley::TestAccuracyUtility utility((*coordinator)->test_set());
  shapley::GroupShapley reference(4, {2, config.seed_e}, &utility);
  for (uint64_t round = 0; round < 2; ++round) {
    std::vector<ml::Matrix> locals;
    for (uint32_t i = 0; i < 4; ++i) {
      const fl::FlClient owner(i, datasets[i], config.local);
      auto local = owner.LocalUpdate(global);
      ASSERT_TRUE(local.ok());
      locals.push_back(std::move(local).value());
    }
    auto expected = reference.EvaluateRound(round, locals);
    ASSERT_TRUE(expected.ok());
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(result->per_round_sv[round][i], expected->user_values[i],
                  1e-3)
          << "round " << round << " owner " << i;
    }
    while (!replica.state().Has(keys::RoundComplete(round))) {
      auto block = chain.GetBlock(replica.chain().Height() + 1);
      ASSERT_TRUE(block.ok()) << "round " << round << " never completes";
      ASSERT_TRUE(replica.CommitBlock(*block).ok());
    }
    auto next = GetMatrix(replica.state(), keys::GlobalModel(round));
    ASSERT_TRUE(next.ok());
    global = std::move(next).value();
  }
}

TEST(CoordinatorTest, CleanSessionStateHoldsOnlyWhatTheNextRoundReads) {
  // Setup, the last global model, n totals, and per round n SVs plus the
  // completion marker: 2 + n + R(n + 1) keys on every replica, however
  // many rounds ran. Submissions and superseded models live in blocks.
  const BcflConfig config = SmallConfig();
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE((*coordinator)->Run().ok());
  const size_t n = config.num_owners;
  auto& engine = (*coordinator)->engine();
  for (size_t m = 0; m < engine.num_miners(); ++m) {
    const chain::ContractState& state = engine.miner(m).state();
    EXPECT_EQ(state.size(), 2 + n + config.rounds * (n + 1)) << "miner " << m;
    EXPECT_TRUE(state.KeysWithPrefix("update/").empty()) << "miner " << m;
    EXPECT_TRUE(state.KeysWithPrefix("group_model/").empty());
    EXPECT_EQ(state.KeysWithPrefix("global/"),
              std::vector<std::string>{keys::GlobalModel(config.rounds - 1)});
  }
}

TEST(CoordinatorTest, ReplicasShareCommittedTransactionBodies) {
  // The five replicas' chains hold one copy of each payload: every tip
  // block is the leader's proposal, copied with shared bodies.
  BcflConfig config = SmallConfig();
  config.num_miners = 5;
  config.rounds = 1;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE((*coordinator)->Run().ok());
  auto& engine = (*coordinator)->engine();
  const chain::Block& tip = engine.miner(0).chain().Tip();
  ASSERT_EQ(tip.txs.size(), config.num_owners);
  for (size_t m = 1; m < engine.num_miners(); ++m) {
    const chain::Block& other = engine.miner(m).chain().Tip();
    ASSERT_EQ(other.header.Hash(), tip.header.Hash());
    for (size_t k = 0; k < tip.txs.size(); ++k) {
      EXPECT_EQ(other.txs[k].payload().data(), tip.txs[k].payload().data())
          << "miner " << m << ", tx " << k;
    }
  }
}

TEST(CoordinatorTest, AllMinersConvergeToSameState) {
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE((*coordinator)->Run().ok());
  auto& engine = (*coordinator)->engine();
  auto root = engine.miner(0).state().StateRoot();
  for (size_t m = 1; m < engine.num_miners(); ++m) {
    EXPECT_EQ(engine.miner(m).state().StateRoot(), root);
  }
}

TEST(CoordinatorTest, DeterministicAcrossIdenticalRuns) {
  auto c1 = BcflCoordinator::Create(SmallConfig());
  auto c2 = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto r1 = (*c1)->Run();
  auto r2 = (*c2)->Run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->total_sv, r2->total_sv);
  EXPECT_EQ(r1->global_weights, r2->global_weights);
}

TEST(CoordinatorTest, RewardPhaseDistributesOnChain) {
  BcflConfig config = SmallConfig();
  config.reward_pool = 1'000'000;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rewards.size(), 4u);
  uint64_t total = 0;
  for (uint64_t r : result->rewards) total += r;
  EXPECT_EQ(total, 1'000'000u);
  // The owner with the highest SV receives the largest reward.
  size_t best_sv = 0, best_reward = 0;
  for (size_t i = 1; i < 4; ++i) {
    if (result->total_sv[i] > result->total_sv[best_sv]) best_sv = i;
    if (result->rewards[i] > result->rewards[best_reward]) best_reward = i;
  }
  EXPECT_EQ(best_sv, best_reward);
}

TEST(CoordinatorTest, NoRewardPoolLeavesRewardsEmpty) {
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewards.empty());
}

TEST(CoordinatorTest, CanonicalChainSurvivesDiskRoundTrip) {
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE((*coordinator)->Run().ok());
  const auto& chain = (*coordinator)->engine().CanonicalChain();

  // Persist through the block log every committed block goes to, then
  // read it back from a fresh open.
  std::string path =
      (std::filesystem::temp_directory_path() / "bcfl_coord_chain.log")
          .string();
  std::filesystem::remove(path);
  {
    auto log = chain::BlockLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t h = 1; h <= chain.Height(); ++h) {
      auto block = chain.GetBlock(h);
      ASSERT_TRUE(block.ok());
      ASSERT_TRUE(log->Append(*block).ok());
    }
  }
  auto reopened = chain::BlockLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<chain::Block> loaded = reopened->TakeRecoveredBlocks();
  reopened->Close();
  std::filesystem::remove(path);
  EXPECT_EQ(reopened->tip_height(), chain.Height());
  ASSERT_EQ(loaded.size(), chain.Height());
  EXPECT_EQ(loaded.back().header.Hash(), chain.Tip().header.Hash());
  size_t transactions = 0;
  for (const chain::Block& block : loaded) transactions += block.txs.size();
  EXPECT_EQ(transactions, chain.TotalTransactions());
}

TEST(CoordinatorTest, CanonicalChainPassesFullAudit) {
  // An external auditor's view: walk the committed chain and verify
  // every structural claim — parent links, Merkle commitments, and an
  // inclusion proof plus signature for every transaction.
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE((*coordinator)->Run().ok());
  const auto& chain = (*coordinator)->engine().CanonicalChain();
  crypto::Schnorr schnorr;

  ASSERT_GT(chain.Height(), 0u);
  for (uint64_t h = 1; h <= chain.Height(); ++h) {
    auto parent = chain.GetBlock(h - 1);
    auto block = chain.GetBlock(h);
    ASSERT_TRUE(parent.ok());
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(chain::Blockchain::Validate(*block, *parent).ok())
        << "height " << h;

    std::vector<crypto::Digest> leaves;
    for (const auto& tx : block->txs) {
      EXPECT_TRUE(tx.VerifySignature(schnorr)) << "height " << h;
      leaves.push_back(tx.Hash());
    }
    chain::MerkleTree tree(leaves);
    EXPECT_EQ(tree.root(), block->header.merkle_root) << "height " << h;
    for (size_t t = 0; t < leaves.size(); ++t) {
      auto proof = tree.Proof(t);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(chain::MerkleTree::VerifyProof(leaves[t], *proof,
                                                 block->header.merkle_root))
          << "height " << h << " tx " << t;
    }
  }
}

TEST(CoordinatorTest, QualityGradientLowersNoisyOwnersSv) {
  BcflConfig config = SmallConfig();
  config.sigma = 4.0;
  config.rounds = 3;
  config.digits.num_instances = 800;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  // Owner 0 (clean) must beat owner 3 (noisiest) in accumulated SV.
  EXPECT_GT(result->total_sv[0], result->total_sv[3]);
}

}  // namespace
}  // namespace bcfl::core
