// Dropout tolerance, from the contract's recover method up to the full
// coordinator round loop (promoted from examples/dropout_recovery.cpp).

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/contract_host.h"
#include "core/coordinator.h"
#include "core/fl_contract.h"
#include "core/session_summary.h"
#include "crypto/shamir.h"
#include "data/digits.h"
#include "frozen_sessions.h"
#include "secureagg/fixed_point.h"
#include "secureagg/participant.h"
#include "shapley/group_sv.h"

namespace bcfl::core {
namespace {

BcflConfig FaultableConfig() {
  BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 3;
  config.rounds = 3;
  config.num_groups = 2;
  config.seed = 21;
  config.seed_e = 5;
  config.sigma = 0.0;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  return config;
}

TEST(DropoutRecoveryTest, CrashedOwnerIsRecoveredRetiredAndFrozen) {
  BcflConfig config = FaultableConfig();
  config.fault_plan = *fault::FaultPlan::Parse("crash owner 2 @1");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());

  // The dropout was detected, recovered on chain and the owner retired.
  ASSERT_EQ(result->retired_at.size(), 1u);
  ASSERT_TRUE(result->retired_at.count(2) > 0);
  EXPECT_EQ(result->retired_at.at(2), 1u);
  EXPECT_GE(result->recover_transactions, 1u);

  // Every round still committed and evaluated.
  ASSERT_EQ(result->per_round_sv.size(), 3u);
  ASSERT_EQ(result->round_accuracies.size(), 3u);

  // SV freeze: owner 2 contributed in round 0, scores exactly zero from
  // the retirement round on.
  EXPECT_NE(result->per_round_sv[0][2], 0.0);
  EXPECT_EQ(result->per_round_sv[1][2], 0.0);
  EXPECT_EQ(result->per_round_sv[2][2], 0.0);
  double frozen = result->per_round_sv[0][2];
  EXPECT_NEAR(result->total_sv[2], frozen, 1e-9);

  // The on-chain retirement record exists and every miner agrees on it.
  auto& engine = (*coordinator)->engine();
  EXPECT_TRUE(engine.CanonicalState().Has(keys::Retired(2)));
  auto root = engine.miner(0).state().StateRoot();
  for (size_t m = 1; m < engine.num_miners(); ++m) {
    EXPECT_EQ(engine.miner(m).state().StateRoot(), root);
  }
}

TEST(DropoutRecoveryTest, RetiredOwnerSkipsRewardClaims) {
  BcflConfig config = FaultableConfig();
  config.reward_pool = 1'000'000;
  config.fault_plan = *fault::FaultPlan::Parse("crash owner 3 @0");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rewards.size(), 4u);
  // Owner 3 never scored, so it claims nothing; survivors split the pool.
  EXPECT_EQ(result->rewards[3], 0u);
  uint64_t survivors = result->rewards[0] + result->rewards[1] +
                       result->rewards[2];
  EXPECT_EQ(survivors, 1'000'000u);
}

TEST(DropoutRecoveryTest, PersistentSubmissionLossBecomesDropout) {
  // The owner is online but the network eats every submission attempt:
  // the deadline/retry machinery gives it up and recovery retires it.
  BcflConfig config = FaultableConfig();
  config.fault_plan =
      *fault::FaultPlan::Parse("drop-submit owner 1 @1 x8");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->submission_retries, kMaxSubmitAttempts);
  ASSERT_TRUE(result->retired_at.count(1) > 0);
  EXPECT_EQ(result->retired_at.at(1), 1u);
  EXPECT_EQ(result->per_round_sv[1][1], 0.0);
  EXPECT_EQ(result->per_round_sv[2][1], 0.0);
}

TEST(DropoutRecoveryTest, TransientSubmissionLossRetriesThroughBackoff) {
  // Two lost attempts stay under kMaxSubmitAttempts: the owner lands
  // late but in time, so nobody drops and nothing is recovered.
  BcflConfig config = FaultableConfig();
  config.fault_plan =
      *fault::FaultPlan::Parse("drop-submit owner 1 @1 x2");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->submission_retries, 2u);
  EXPECT_TRUE(result->retired_at.empty());
  EXPECT_EQ(result->recover_transactions, 0u);
  EXPECT_NE(result->per_round_sv[1][1], 0.0);
}

TEST(DropoutRecoveryTest, UnderThresholdRecoveryFailsClosed) {
  // Threshold = all owners: with one owner missing only n-1 shares
  // survive, so the reveal must fail closed rather than guess a key.
  BcflConfig config = FaultableConfig();
  config.secure_agg_threshold = 4;
  config.fault_plan =
      *fault::FaultPlan::Parse("drop-submit owner 0 @0 x8");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  auto result = (*coordinator)->Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(DropoutRecoveryTest, UnsafeCrashPlanIsRejectedAtSetup) {
  // A plan whose crashes would leave fewer than `threshold` share
  // holders is refused before any training happens.
  BcflConfig config = FaultableConfig();
  config.secure_agg_threshold = 4;
  config.fault_plan = *fault::FaultPlan::Parse("crash owner 0 @0");
  EXPECT_FALSE(BcflCoordinator::Create(config).ok());
}

TEST(DropoutRecoveryTest, FaultedRunIsPoolSizeInvariant) {
  // The pool size must not change what lands on chain, even when the
  // round hits the full dropout/recovery machinery: crashes, eaten
  // submissions, retirement, SV freezes. Both runs must also land the
  // chain the serial round loop committed (frozen vector).
  BcflConfig config = FaultableConfig();
  config.fault_plan = *fault::FaultPlan::Parse(
      "crash owner 2 @1; drop-submit owner 1 @2 x2");
  config.pool_threads = 1;
  auto single_coord = BcflCoordinator::Create(config);
  ASSERT_TRUE(single_coord.ok());
  auto single = (*single_coord)->Run();
  ASSERT_TRUE(single.ok());

  config.pool_threads = 3;
  auto pooled_coord = BcflCoordinator::Create(config);
  ASSERT_TRUE(pooled_coord.ok());
  auto pooled = (*pooled_coord)->Run();
  ASSERT_TRUE(pooled.ok());

  EXPECT_EQ(single->total_sv, pooled->total_sv);
  EXPECT_EQ(single->per_round_sv, pooled->per_round_sv);
  EXPECT_EQ(single->global_weights, pooled->global_weights);
  EXPECT_EQ(single->round_accuracies, pooled->round_accuracies);
  EXPECT_EQ(single->retired_at, pooled->retired_at);
  EXPECT_EQ(single->recover_transactions, pooled->recover_transactions);
  EXPECT_EQ(single->submission_retries, pooled->submission_retries);
  EXPECT_EQ(single->blocks_committed, pooled->blocks_committed);
  EXPECT_EQ(single->total_transactions, pooled->total_transactions);
  EXPECT_EQ(
      SummarizeSession((*single_coord)->engine().CanonicalChain(), *single)
          .ToJson(),
      frozen::kFaultedSession);
  EXPECT_EQ(
      SummarizeSession((*pooled_coord)->engine().CanonicalChain(), *pooled)
          .ToJson(),
      frozen::kFaultedSession);
}

// --- Contract-level recovery semantics (the old example's scenario). ---

class RecoverContractTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kOwners = 4;
  static constexpr uint32_t kDropped = 2;
  static constexpr size_t kThreshold = 3;

  RecoverContractTest() : host_(schnorr_) {
    for (uint32_t i = 0; i < kOwners; ++i) {
      sign_keys_.push_back(schnorr_.GenerateKeyPair(&rng_));
      owners_.push_back(std::make_unique<secureagg::SecureAggParticipant>(
          i, dh_, &rng_, /*use_self_mask=*/false));
    }
    for (auto& p : owners_) {
      for (auto& q : owners_) {
        if (p->id() != q->id()) {
          EXPECT_TRUE(p->RegisterPeer(q->id(), q->public_key()).ok());
        }
      }
    }
    data::DigitsConfig digits;
    digits.num_instances = 400;
    ml::Dataset validation = data::DigitsGenerator(digits).Generate();
    EXPECT_TRUE(
        host_.Register(std::make_shared<FlContract>(validation)).ok());

    SetupParams params;
    params.num_owners = kOwners;
    params.rounds = 2;
    params.num_groups = 2;
    params.seed_e = 5;
    params.weight_rows = 65;
    params.weight_cols = 10;
    for (uint32_t i = 0; i < kOwners; ++i) {
      params.schnorr_public_keys.push_back(sign_keys_[i].public_key);
      params.dh_public_keys.push_back(owners_[i]->public_key());
    }
    chain::Transaction setup = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "setup",
         .payload = params.Serialize()},
        schnorr_, sign_keys_[0], &rng_);
    EXPECT_TRUE(host_.ExecuteTransaction(setup, &state_)->success);
    params_ = params;
  }

  /// Masks and submits owner `i`'s round-`round` update; returns the
  /// receipt's success flag.
  bool SubmitOwner(uint32_t i, uint64_t round, uint64_t nonce) {
    auto perm =
        shapley::PermutationFromSeed(params_.seed_e, round, kOwners);
    auto groups = shapley::GroupUsers(perm, params_.num_groups).value();
    std::vector<secureagg::OwnerId> members;
    for (const auto& group : groups) {
      if (std::find(group.begin(), group.end(), static_cast<size_t>(i)) !=
          group.end()) {
        for (size_t m : group) {
          members.push_back(static_cast<secureagg::OwnerId>(m));
        }
      }
    }
    secureagg::FixedPointCodec codec(24);
    ml::Matrix local = ml::Matrix::Gaussian(65, 10, 0.3, &rng_);
    auto masked =
        owners_[i]->MaskUpdate(round, members, codec.EncodeMatrix(local));
    EXPECT_TRUE(masked.ok());
    chain::Transaction tx = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "submit_update",
         .payload = FlContract::EncodeSubmitUpdate(round, i, *masked),
         .nonce = nonce},
        schnorr_, sign_keys_[i], &rng_);
    return host_.ExecuteTransaction(tx, &state_)->success;
  }

  chain::TxReceipt Recover(uint64_t round, const crypto::UInt256& key,
                           uint64_t nonce) {
    chain::Transaction tx = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "recover",
         .payload = FlContract::EncodeRecover(round, kDropped, key),
         .nonce = nonce},
        schnorr_, sign_keys_[0], &rng_);
    return *host_.ExecuteTransaction(tx, &state_);
  }

  Xoshiro256 rng_{99};
  crypto::Schnorr schnorr_;
  crypto::DiffieHellman dh_;
  std::vector<crypto::SchnorrKeyPair> sign_keys_;
  std::vector<std::unique_ptr<secureagg::SecureAggParticipant>> owners_;
  chain::ContractHost host_;
  chain::ContractState state_;
  SetupParams params_;
};

TEST_F(RecoverContractTest, ForgedKeyIsRejectedGenuineKeyCompletesRound) {
  // Everyone but owner 2 submits; the round stays open.
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == kDropped) continue;
    ASSERT_TRUE(SubmitOwner(i, 0, i + 1));
  }
  EXPECT_FALSE(state_.Has(keys::RoundComplete(0)));

  // Survivors reconstruct the dropped key from a threshold of shares.
  auto scheme =
      crypto::ShamirSecretSharing::Create(kThreshold, kOwners).value();
  auto shares =
      scheme.Split(owners_[kDropped]->private_key().ToBytes(), &rng_);
  Bytes key_bytes =
      scheme.Reconstruct({shares[0], shares[1], shares[3]}, 32).value();
  crypto::UInt256 genuine = crypto::UInt256::FromBytes(key_bytes).value();

  // A forged key fails the contract's g^x == pub check.
  auto forged = Recover(0, crypto::UInt256(777), 50);
  EXPECT_FALSE(forged.success);
  EXPECT_FALSE(state_.Has(keys::RoundComplete(0)));

  // The genuine key completes the round over the survivors.
  auto receipt = Recover(0, genuine, 51);
  EXPECT_TRUE(receipt.success) << receipt.error;
  EXPECT_TRUE(state_.Has(keys::RoundComplete(0)));
  EXPECT_TRUE(state_.Has(keys::Retired(kDropped)));
  auto sv = GetDouble(state_, keys::RoundSv(0, kDropped));
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(*sv, 0.0);
}

TEST_F(RecoverContractTest, SecondRecoveryOfRetiredOwnerIsRejected) {
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == kDropped) continue;
    ASSERT_TRUE(SubmitOwner(i, 0, i + 1));
  }
  auto scheme =
      crypto::ShamirSecretSharing::Create(kThreshold, kOwners).value();
  auto shares =
      scheme.Split(owners_[kDropped]->private_key().ToBytes(), &rng_);
  Bytes key_bytes =
      scheme.Reconstruct({shares[0], shares[1], shares[3]}, 32).value();
  crypto::UInt256 genuine = crypto::UInt256::FromBytes(key_bytes).value();
  ASSERT_TRUE(Recover(0, genuine, 50).success);

  // Replaying the recovery — same or later round — is rejected.
  EXPECT_FALSE(Recover(0, genuine, 51).success);
  EXPECT_FALSE(Recover(1, genuine, 52).success);
}

TEST_F(RecoverContractTest, RetiredOwnerCannotSubmitInLaterRounds) {
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == kDropped) continue;
    ASSERT_TRUE(SubmitOwner(i, 0, i + 1));
  }
  auto scheme =
      crypto::ShamirSecretSharing::Create(kThreshold, kOwners).value();
  auto shares =
      scheme.Split(owners_[kDropped]->private_key().ToBytes(), &rng_);
  Bytes key_bytes =
      scheme.Reconstruct({shares[0], shares[1], shares[3]}, 32).value();
  ASSERT_TRUE(
      Recover(0, crypto::UInt256::FromBytes(key_bytes).value(), 50)
          .success);

  // Round 1: the revealed key is public, so owner 2's masks offer no
  // privacy — the contract refuses its submissions permanently, and the
  // round completes from the survivors plus the standing retirement.
  EXPECT_FALSE(SubmitOwner(kDropped, 1, 60));
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == kDropped) continue;
    ASSERT_TRUE(SubmitOwner(i, 1, 70 + i));
  }
  EXPECT_TRUE(state_.Has(keys::RoundComplete(1)));
  auto sv = GetDouble(state_, keys::RoundSv(1, kDropped));
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(*sv, 0.0);
}

}  // namespace
}  // namespace bcfl::core
