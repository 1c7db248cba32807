#include "core/fl_contract.h"

#include <gtest/gtest.h>

#include "chain/contract_host.h"
#include "common/thread_pool.h"
#include "secureagg/fixed_point.h"
#include "secureagg/participant.h"
#include "shapley/group_sv.h"

namespace bcfl::core {
namespace {

/// Tiny 3-class blob dataset so contract evaluation is fast.
ml::Dataset TinyValidationSet(uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  const size_t kPerClass = 30;
  ml::Matrix x(3 * kPerClass, 4);
  std::vector<int> y(3 * kPerClass);
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < kPerClass; ++i) {
      size_t row = static_cast<size_t>(c) * kPerClass + i;
      for (size_t f = 0; f < 4; ++f) {
        x.At(row, f) = rng.NextGaussian(static_cast<double>(c) * 3.0, 0.5);
      }
      y[row] = c;
    }
  }
  return ml::Dataset(std::move(x), std::move(y), 3);
}

/// A session of `owners` owners in `groups` groups: the owners' keys,
/// the setup params and a host running a pool-less FlContract, plus
/// builders for the session's signed transactions.
class ContractSession {
 public:
  static constexpr uint32_t kRows = 5;   // 4 features + bias.
  static constexpr uint32_t kCols = 3;

  ContractSession(uint32_t owners, uint32_t groups)
      : owners_(owners),
        groups_(groups),
        rng_(11),
        validation_(TinyValidationSet()) {
    crypto::DiffieHellman dh;
    for (uint32_t i = 0; i < owners_; ++i) {
      schnorr_keys_.push_back(schnorr_.GenerateKeyPair(&rng_));
      participants_.push_back(
          std::make_unique<secureagg::SecureAggParticipant>(
              i, dh, &rng_, /*use_self_mask=*/false));
    }
    for (auto& p : participants_) {
      for (auto& q : participants_) {
        if (p->id() != q->id()) {
          EXPECT_TRUE(p->RegisterPeer(q->id(), q->public_key()).ok());
        }
      }
    }
    params_.num_owners = owners_;
    params_.rounds = 3;
    params_.num_groups = groups_;
    params_.seed_e = 5;
    params_.fixed_point_bits = 24;
    params_.weight_rows = kRows;
    params_.weight_cols = kCols;
    for (uint32_t i = 0; i < owners_; ++i) {
      params_.schnorr_public_keys.push_back(schnorr_keys_[i].public_key);
      params_.dh_public_keys.push_back(participants_[i]->public_key());
    }
    host_ = std::make_unique<chain::ContractHost>(schnorr_);
    EXPECT_TRUE(
        host_->Register(std::make_shared<FlContract>(validation_)).ok());
  }

  chain::Transaction SetupTx(uint32_t signer = 0) {
    return chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "setup",
         .payload = params_.Serialize(),
         .nonce = 0},
        schnorr_, schnorr_keys_[signer], &rng_);
  }

  /// Builds a masked submission for `owner` at `round` from its plain
  /// local weights.
  chain::Transaction SubmitTx(uint32_t owner, uint64_t round,
                              const ml::Matrix& weights) {
    auto groups = CurrentGroups(round);
    std::vector<secureagg::OwnerId> members;
    for (const auto& group : groups) {
      if (std::find(group.begin(), group.end(), owner) != group.end()) {
        for (size_t m : group) {
          members.push_back(static_cast<secureagg::OwnerId>(m));
        }
      }
    }
    secureagg::FixedPointCodec codec(24);
    auto masked = participants_[owner]->MaskUpdate(
        round, members, codec.EncodeMatrix(weights));
    EXPECT_TRUE(masked.ok());
    return chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "submit_update",
         .payload = FlContract::EncodeSubmitUpdate(round, owner, *masked),
         .nonce = round * 100 + owner + 1},
        schnorr_, schnorr_keys_[owner], &rng_);
  }

  std::vector<std::vector<size_t>> CurrentGroups(uint64_t round) const {
    auto perm = shapley::PermutationFromSeed(params_.seed_e, round, owners_);
    return *shapley::GroupUsers(perm, groups_);
  }

  std::vector<ml::Matrix> RandomLocals(uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<ml::Matrix> locals;
    for (uint32_t i = 0; i < owners_; ++i) {
      locals.push_back(ml::Matrix::Gaussian(kRows, kCols, 0.5, &rng));
    }
    return locals;
  }

  uint32_t owners_;
  uint32_t groups_;
  crypto::Schnorr schnorr_;
  Xoshiro256 rng_;
  ml::Dataset validation_;
  std::vector<crypto::SchnorrKeyPair> schnorr_keys_;
  std::vector<std::unique_ptr<secureagg::SecureAggParticipant>> participants_;
  SetupParams params_;
  std::unique_ptr<chain::ContractHost> host_;
};

class FlContractFixture : public ::testing::Test, public ContractSession {
 protected:
  static constexpr uint32_t kOwners = 4;
  static constexpr uint32_t kGroups = 2;

  FlContractFixture() : ContractSession(kOwners, kGroups) {}
};

TEST_F(FlContractFixture, SetupStoresParamsOnce) {
  chain::ContractState state;
  auto r1 = host_->ExecuteTransaction(SetupTx(), &state);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->success);
  EXPECT_TRUE(state.Has(keys::SetupParams()));

  auto r2 = host_->ExecuteTransaction(SetupTx(), &state);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->success);  // AlreadyExists.
}

TEST_F(FlContractFixture, SetupMustBeSignedByOwnerZero) {
  chain::ContractState state;
  auto receipt = host_->ExecuteTransaction(SetupTx(/*signer=*/2), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_FALSE(state.Has(keys::SetupParams()));
}

TEST_F(FlContractFixture, SubmitBeforeSetupFails) {
  chain::ContractState state;
  auto locals = RandomLocals(1);
  auto receipt =
      host_->ExecuteTransaction(SubmitTx(0, 0, locals[0]), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

TEST_F(FlContractFixture, FullRoundEvaluatesGroupSvOnMaskedUpdates) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);

  auto locals = RandomLocals(2);
  for (uint32_t i = 0; i < kOwners; ++i) {
    auto receipt =
        host_->ExecuteTransaction(SubmitTx(i, 0, locals[i]), &state);
    ASSERT_TRUE(receipt.ok());
    EXPECT_TRUE(receipt->success) << receipt->error;
  }
  ASSERT_TRUE(state.Has(keys::RoundComplete(0)));

  // The on-chain result (computed from *masked* updates) must match the
  // off-chain GroupSV reference on the plain locals, up to fixed-point
  // quantisation.
  shapley::TestAccuracyUtility utility(validation_);
  shapley::GroupShapley reference(kOwners, {kGroups, params_.seed_e},
                                  &utility);
  auto expected = reference.EvaluateRound(0, locals);
  ASSERT_TRUE(expected.ok());
  for (uint32_t i = 0; i < kOwners; ++i) {
    auto on_chain = GetDouble(state, keys::RoundSv(0, i));
    ASSERT_TRUE(on_chain.ok());
    EXPECT_NEAR(*on_chain, expected->user_values[i], 1e-4) << "owner " << i;
  }
  auto global = GetMatrix(state, keys::GlobalModel(0));
  ASSERT_TRUE(global.ok());
  for (size_t k = 0; k < global->size(); ++k) {
    EXPECT_NEAR(global->data()[k], expected->global_model.data()[k], 1e-4);
  }
}

TEST_F(FlContractFixture, DuplicateSubmissionRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  auto locals = RandomLocals(3);
  ASSERT_TRUE(
      host_->ExecuteTransaction(SubmitTx(1, 0, locals[1]), &state)->success);
  auto duplicate =
      host_->ExecuteTransaction(SubmitTx(1, 0, locals[1]), &state);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_FALSE(duplicate->success);
}

TEST_F(FlContractFixture, EvaluationPrunesUpdatesAndSupersededGlobal) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  for (uint64_t round = 0; round < 2; ++round) {
    auto locals = RandomLocals(30 + round);
    for (uint32_t i = 0; i < kOwners; ++i) {
      ASSERT_TRUE(
          host_->ExecuteTransaction(SubmitTx(i, round, locals[i]), &state)
              ->success);
      // Every submission stays until the one that completes the round.
      EXPECT_EQ(state.Has(keys::Update(round, 0)), i + 1 < kOwners);
    }
    EXPECT_TRUE(state.Has(keys::GlobalModel(round)));
    EXPECT_EQ(state.KeysWithPrefix("global/").size(), 1u);
  }
  EXPECT_TRUE(state.KeysWithPrefix("update/").empty());
}

TEST_F(FlContractFixture, EvaluatedRoundRefusesSubmitAndRecover) {
  // The round's updates are pruned at evaluation, so the refusals cannot
  // rest on them: a resubmission, and a recovery of an owner who
  // submitted, both fail on the completion marker and write nothing.
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  auto locals = RandomLocals(24);
  for (uint32_t i = 0; i < kOwners; ++i) {
    ASSERT_TRUE(
        host_->ExecuteTransaction(SubmitTx(i, 0, locals[i]), &state)
            ->success);
  }
  ASSERT_TRUE(state.Has(keys::RoundComplete(0)));
  ASSERT_FALSE(state.Has(keys::Update(0, 2)));
  const crypto::Digest root = state.StateRoot();

  auto resubmit =
      host_->ExecuteTransaction(SubmitTx(2, 0, locals[2]), &state);
  ASSERT_TRUE(resubmit.ok());
  EXPECT_FALSE(resubmit->success);
  EXPECT_NE(resubmit->error.find("FailedPrecondition"), std::string::npos)
      << resubmit->error;
  EXPECT_NE(resubmit->error.find("round already evaluated"),
            std::string::npos);
  EXPECT_EQ(state.StateRoot(), root);

  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload =
           FlContract::EncodeRecover(0, 2, participants_[2]->private_key()),
       .nonce = 905},
      schnorr_, schnorr_keys_[0], &rng_);
  auto recovered = host_->ExecuteTransaction(recover, &state);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->success);
  EXPECT_NE(recovered->error.find("FailedPrecondition"), std::string::npos)
      << recovered->error;
  EXPECT_NE(recovered->error.find("round already evaluated"),
            std::string::npos);
  EXPECT_FALSE(state.Has(keys::Retired(2)));
  EXPECT_EQ(state.StateRoot(), root);
}

TEST_F(FlContractFixture, ImpersonationRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  // Owner 2 signs a payload claiming to be owner 1.
  auto locals = RandomLocals(4);
  chain::Transaction tx = chain::Transaction::Sign(
      SubmitTx(1, 0, locals[1]).body(), schnorr_, schnorr_keys_[2], &rng_);
  auto receipt = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->error.find("PermissionDenied"), std::string::npos);
}

TEST_F(FlContractFixture, RejectsWrongDimensionOrHorizon) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);

  chain::Transaction bad_dim = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "submit_update",
       .payload =
           FlContract::EncodeSubmitUpdate(0, 0, std::vector<uint64_t>(7)),
       .nonce = 1},
      schnorr_, schnorr_keys_[0], &rng_);
  EXPECT_FALSE(host_->ExecuteTransaction(bad_dim, &state)->success);

  auto locals = RandomLocals(5);
  auto late = SubmitTx(0, /*round=*/99, locals[0]);
  EXPECT_FALSE(host_->ExecuteTransaction(late, &state)->success);
}

TEST_F(FlContractFixture, UnknownMethodFails) {
  chain::ContractState state;
  chain::Transaction tx = chain::Transaction::Sign(
      {.contract = "bcfl", .method = "withdraw", .nonce = 1},
      schnorr_, schnorr_keys_[0], &rng_);
  auto receipt = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

TEST_F(FlContractFixture, TotalsAccumulateAcrossRounds) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  for (uint64_t round = 0; round < 2; ++round) {
    auto locals = RandomLocals(10 + round);
    for (uint32_t i = 0; i < kOwners; ++i) {
      ASSERT_TRUE(
          host_->ExecuteTransaction(SubmitTx(i, round, locals[i]), &state)
              ->success);
    }
  }
  for (uint32_t i = 0; i < kOwners; ++i) {
    auto total = GetDouble(state, keys::TotalSv(i));
    auto r0 = GetDouble(state, keys::RoundSv(0, i));
    auto r1 = GetDouble(state, keys::RoundSv(1, i));
    ASSERT_TRUE(total.ok());
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r1.ok());
    EXPECT_NEAR(*total, *r0 + *r1, 1e-12);
  }
}

TEST_F(FlContractFixture, DropoutRecoveryCompletesRound) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);

  auto locals = RandomLocals(21);
  // Owner 2 never submits; the others' masks against it dangle.
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(
        host_->ExecuteTransaction(SubmitTx(i, 0, locals[i]), &state)
            ->success);
  }
  EXPECT_FALSE(state.Has(keys::RoundComplete(0)));

  // Share-reveal: owner 0 posts owner 2's reconstructed DH private key.
  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload =
           FlContract::EncodeRecover(0, 2, participants_[2]->private_key()),
       .nonce = 900},
      schnorr_, schnorr_keys_[0], &rng_);
  auto receipt = host_->ExecuteTransaction(recover, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success) << receipt->error;
  EXPECT_TRUE(state.Has(keys::RoundComplete(0)));

  // The dropped owner scores zero this round; survivors score real SVs.
  auto dropped_sv = GetDouble(state, keys::RoundSv(0, 2));
  ASSERT_TRUE(dropped_sv.ok());
  EXPECT_EQ(*dropped_sv, 0.0);

  // The global model must equal the plain mean of the *survivors'*
  // locals, up to quantisation: a mask left in any group would show.
  std::vector<ml::Matrix> survivor_locals;
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i != 2) survivor_locals.push_back(locals[i]);
  }
  auto expected = ml::MeanOfMatrices(survivor_locals).value();
  auto on_chain = GetMatrix(state, keys::GlobalModel(0));
  ASSERT_TRUE(on_chain.ok());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(on_chain->data()[k], expected.data()[k], 1e-4)
        << "element " << k;
  }
}

TEST_F(FlContractFixture, ForgedRecoveryKeyRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  // A key that does not match owner 2's public key.
  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload = FlContract::EncodeRecover(0, 2, crypto::UInt256(12345)),
       .nonce = 901},
      schnorr_, schnorr_keys_[0], &rng_);
  auto receipt = host_->ExecuteTransaction(recover, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->error.find("does not match"), std::string::npos);
}

TEST_F(FlContractFixture, RecoveryOfSubmittedOwnerRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  auto locals = RandomLocals(22);
  ASSERT_TRUE(
      host_->ExecuteTransaction(SubmitTx(1, 0, locals[1]), &state)->success);

  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload =
           FlContract::EncodeRecover(0, 1, participants_[1]->private_key()),
       .nonce = 902},
      schnorr_, schnorr_keys_[0], &rng_);
  EXPECT_FALSE(host_->ExecuteTransaction(recover, &state)->success);
}

TEST_F(FlContractFixture, SubmissionAfterRecoveryRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload =
           FlContract::EncodeRecover(0, 3, participants_[3]->private_key()),
       .nonce = 903},
      schnorr_, schnorr_keys_[1], &rng_);
  ASSERT_TRUE(host_->ExecuteTransaction(recover, &state)->success);

  auto locals = RandomLocals(23);
  EXPECT_FALSE(
      host_->ExecuteTransaction(SubmitTx(3, 0, locals[3]), &state)->success);
}

TEST_F(FlContractFixture, RecoveryFromNonOwnerRejected) {
  chain::ContractState state;
  ASSERT_TRUE(host_->ExecuteTransaction(SetupTx(), &state)->success);
  crypto::SchnorrKeyPair outsider = schnorr_.GenerateKeyPair(&rng_);
  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload =
           FlContract::EncodeRecover(0, 2, participants_[2]->private_key()),
       .nonce = 904},
      schnorr_, outsider, &rng_);
  auto receipt = host_->ExecuteTransaction(recover, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

// The session pool scores a round's 2^m coalitions; it must move no bit
// of what the round writes. At m = 9 the 512 coalitions spread over
// every worker.
TEST(FlContractPoolTest, PooledCoalitionScoringMatchesSerial) {
  constexpr uint32_t kOwners = 9;
  ThreadPool pool(4);
  for (uint32_t groups : {3u, 9u}) {
    ContractSession session(kOwners, groups);
    std::vector<chain::Transaction> txs = {session.SetupTx()};
    auto locals = session.RandomLocals(17);
    for (uint32_t i = 0; i < kOwners; ++i) {
      txs.push_back(session.SubmitTx(i, 0, locals[i]));
    }
    chain::ContractHost serial_host(session.schnorr_);
    chain::ContractHost pooled_host(session.schnorr_);
    ASSERT_TRUE(serial_host
                    .Register(std::make_shared<FlContract>(session.validation_))
                    .ok());
    ASSERT_TRUE(pooled_host
                    .Register(std::make_shared<FlContract>(
                        session.validation_, &pool))
                    .ok());
    chain::ContractState serial, pooled;
    ASSERT_TRUE(serial_host.ExecuteBlock(txs, &serial).ok());
    ASSERT_TRUE(pooled_host.ExecuteBlock(txs, &pooled).ok());
    ASSERT_TRUE(serial.Has(keys::RoundComplete(0))) << "m = " << groups;
    ASSERT_TRUE(pooled.Has(keys::RoundComplete(0))) << "m = " << groups;
    EXPECT_EQ(serial.StateRoot(), pooled.StateRoot()) << "m = " << groups;
    for (uint32_t i = 0; i < kOwners; ++i) {
      auto serial_sv = GetDouble(serial, keys::RoundSv(0, i));
      auto pooled_sv = GetDouble(pooled, keys::RoundSv(0, i));
      ASSERT_TRUE(serial_sv.ok());
      ASSERT_TRUE(pooled_sv.ok());
      EXPECT_EQ(std::memcmp(&*serial_sv, &*pooled_sv, sizeof(double)), 0)
          << "m = " << groups << ", owner " << i;
    }
  }
}

TEST_F(FlContractFixture, ReExecutionIsDeterministic) {
  // Same transactions on two fresh states -> identical state roots: the
  // property that makes the evaluation verifiable by miners.
  std::vector<chain::Transaction> txs;
  txs.push_back(SetupTx());
  auto locals = RandomLocals(6);
  for (uint32_t i = 0; i < kOwners; ++i) {
    txs.push_back(SubmitTx(i, 0, locals[i]));
  }
  chain::ContractState s1, s2;
  ASSERT_TRUE(host_->ExecuteBlock(txs, &s1).ok());
  ASSERT_TRUE(host_->ExecuteBlock(txs, &s2).ok());
  EXPECT_EQ(s1.StateRoot(), s2.StateRoot());
}

}  // namespace
}  // namespace bcfl::core
