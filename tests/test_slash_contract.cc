// Contract-level slashing semantics (PR 9): every evidence kind convicts
// exactly when the deterministic re-verification succeeds — a bogus
// accusation against an honest owner always dies inside the contract.

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/contract_host.h"
#include "core/fl_contract.h"
#include "core/slash_contract.h"
#include "crypto/shamir.h"
#include "data/digits.h"
#include "secureagg/fixed_point.h"
#include "secureagg/participant.h"
#include "shapley/group_sv.h"

namespace bcfl::core {
namespace {

/// `tx`'s body with the last payload byte flipped: a conflicting twin.
chain::TxBody FlippedPayload(const chain::Transaction& tx) {
  chain::TxBody body = tx.body();
  body.payload.back() ^= 1;
  return body;
}

class SlashContractTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kOwners = 4;
  static constexpr size_t kThreshold = 3;
  static constexpr double kNormBound = 100.0;

  SlashContractTest() : host_(schnorr_) {
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
    auto fl = std::make_shared<FlContract>(validation);
    EXPECT_TRUE(host_.Register(fl).ok());
    EXPECT_TRUE(host_.Register(std::make_shared<SlashContract>(fl)).ok());

    // Every owner's DH key is VSS-shared exactly as the coordinator does
    // it: the dealer's Feldman commitment goes on chain with setup.
    auto scheme =
        crypto::ShamirSecretSharing::Create(kThreshold, kOwners).value();
    SetupParams params;
    params.num_owners = kOwners;
    params.rounds = 2;
    params.num_groups = 2;
    params.seed_e = 5;
    params.weight_rows = 65;
    params.weight_cols = 10;
    params.shamir_threshold = kThreshold;
    params.update_norm_bound = kNormBound;
    for (uint32_t i = 0; i < kOwners; ++i) {
      params.schnorr_public_keys.push_back(sign_keys_[i].public_key);
      params.dh_public_keys.push_back(owners_[i]->public_key());
      crypto::VssCommitment commitment;
      shares_.push_back(scheme.SplitVerifiable(
          owners_[i]->private_key().ToBytes(), &rng_, &commitment));
      params.vss_commitments.push_back(commitment.Serialize());
    }
    chain::Transaction setup = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "setup",
         .payload = params.Serialize()},
        schnorr_, sign_keys_[0], &rng_);
    EXPECT_TRUE(host_.ExecuteTransaction(setup, &state_)->success);
    params_ = params;
  }

  chain::Transaction BuildSubmit(uint32_t i, uint64_t round, uint64_t nonce,
                                 double scale) {
    auto perm = shapley::PermutationFromSeed(params_.seed_e, round, kOwners);
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
    ml::Matrix local = ml::Matrix::Gaussian(65, 10, scale, &rng_);
    auto masked =
        owners_[i]->MaskUpdate(round, members, codec.EncodeMatrix(local));
    EXPECT_TRUE(masked.ok());
    return chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "submit_update",
         .payload = FlContract::EncodeSubmitUpdate(round, i, *masked),
         .nonce = nonce},
        schnorr_, sign_keys_[i], &rng_);
  }

  bool SubmitOwner(uint32_t i, uint64_t round, uint64_t nonce,
                   double scale = 0.3) {
    return host_
        .ExecuteTransaction(BuildSubmit(i, round, nonce, scale), &state_)
        ->success;
  }

  chain::TxReceipt Slash(const Bytes& evidence, uint64_t nonce,
                         uint32_t reporter = 0) {
    chain::Transaction tx = chain::Transaction::Sign(
        {.contract = "slash",
         .method = "slash",
         .payload = evidence,
         .nonce = nonce},
        schnorr_, sign_keys_[reporter], &rng_);
    return *host_.ExecuteTransaction(tx, &state_);
  }

  /// Owner `offender`'s share of `dealer`'s key, perturbed in-field — the
  /// minimal forgery a byzantine holder can hand a recovery.
  crypto::ShamirShare ForgedShare(uint32_t offender, uint32_t dealer) {
    crypto::ShamirShare share = shares_[dealer][offender];
    for (uint64_t& value : share.values) {
      value = crypto::ShamirSecretSharing::FieldAdd(value, 1);
    }
    return share;
  }

  crypto::SchnorrSignature SignReveal(uint32_t signer, uint64_t round,
                                      uint32_t dealer,
                                      const crypto::ShamirShare& share) {
    return schnorr_.Sign(sign_keys_[signer],
                         SlashContract::BadShareMessage(round, dealer, share),
                         &rng_);
  }

  Xoshiro256 rng_{99};
  crypto::Schnorr schnorr_;
  crypto::DiffieHellman dh_;
  std::vector<crypto::SchnorrKeyPair> sign_keys_;
  std::vector<std::unique_ptr<secureagg::SecureAggParticipant>> owners_;
  std::vector<std::vector<crypto::ShamirShare>> shares_;
  chain::ContractHost host_;
  chain::ContractState state_;
  SetupParams params_;
};

TEST_F(SlashContractTest, ValidBadShareEvidenceConvictsAndCompletesRound) {
  // Round 0 as the coordinator sees a bad-share round: owner 3 crashes
  // (never submits), the others submit, and during owner 3's recovery
  // owner 1 reveals a forged share of owner 2's key and is accused.
  const uint32_t offender = 1, dealer = 2, crashed = 3;
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == crashed) continue;
    ASSERT_TRUE(SubmitOwner(i, 0, i + 1));
  }
  crypto::ShamirShare forged = ForgedShare(offender, dealer);
  const Bytes evidence = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, forged,
      SignReveal(offender, 0, dealer, forged));
  auto receipt = Slash(evidence, 50);
  EXPECT_TRUE(receipt.success) << receipt.error;

  // Conviction == crash semantics: update struck, dropped-with-key,
  // permanently retired, slash recorded. The round stays open until the
  // crashed owner's recovery lands, exactly like a two-crash round.
  EXPECT_FALSE(state_.Has(keys::Update(0, offender)));
  EXPECT_TRUE(state_.Has(keys::Dropped(0, offender)));
  EXPECT_TRUE(state_.Has(keys::Retired(offender)));
  EXPECT_TRUE(state_.Has(keys::Slashed(offender)));
  EXPECT_FALSE(state_.Has(keys::RoundComplete(0)));

  chain::Transaction recover = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "recover",
       .payload = FlContract::EncodeRecover(
           0, crashed, owners_[crashed]->private_key()),
       .nonce = 51},
      schnorr_, sign_keys_[0], &rng_);
  ASSERT_TRUE(host_.ExecuteTransaction(recover, &state_)->success);

  // Completed over the two survivors; both absentees score zero.
  EXPECT_TRUE(state_.Has(keys::RoundComplete(0)));
  auto sv = GetDouble(state_, keys::RoundSv(0, offender));
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(*sv, 0.0);
  auto crashed_sv = GetDouble(state_, keys::RoundSv(0, crashed));
  ASSERT_TRUE(crashed_sv.ok());
  EXPECT_EQ(*crashed_sv, 0.0);
}

TEST_F(SlashContractTest, HonestShareMakesBadShareAccusationBogus) {
  // The genuine share verifies against the dealer's commitment, so the
  // accusation dies — an honest holder cannot be framed with its own
  // honest reveal.
  const uint32_t offender = 1, dealer = 2;
  const crypto::ShamirShare honest = shares_[dealer][offender];
  const Bytes evidence = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, honest,
      SignReveal(offender, 0, dealer, honest));
  auto receipt = Slash(evidence, 50);
  EXPECT_FALSE(receipt.success);
  EXPECT_FALSE(state_.Has(keys::Slashed(offender)));
  EXPECT_FALSE(state_.Has(keys::Retired(offender)));
}

TEST_F(SlashContractTest, UnsignedOrMisattributedBadShareIsRejected) {
  const uint32_t offender = 1, dealer = 2;
  crypto::ShamirShare forged = ForgedShare(offender, dealer);
  // Signed by someone other than the claimed offender: framing attempt.
  const Bytes framed = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, forged,
      SignReveal(/*signer=*/3, 0, dealer, forged));
  EXPECT_FALSE(Slash(framed, 50).success);
  // Share in someone else's slot cannot convict this offender.
  crypto::ShamirShare other_slot = ForgedShare(/*offender=*/3, dealer);
  const Bytes wrong_slot = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, other_slot,
      SignReveal(offender, 0, dealer, other_slot));
  EXPECT_FALSE(Slash(wrong_slot, 51).success);
  // A wrong revealed key fails the g^x == pub check.
  const Bytes wrong_key = SlashContract::EncodeBadShare(
      0, offender, crypto::UInt256(777), dealer, forged,
      SignReveal(offender, 0, dealer, forged));
  EXPECT_FALSE(Slash(wrong_key, 52).success);
  EXPECT_FALSE(state_.Has(keys::Slashed(offender)));
}

TEST_F(SlashContractTest, EquivocationEvidenceConvicts) {
  const uint32_t offender = 2;
  chain::Transaction first = BuildSubmit(offender, 0, 10, 0.3);
  chain::Transaction second = chain::Transaction::Sign(
      FlippedPayload(first), schnorr_, sign_keys_[offender], &rng_);
  const Bytes evidence = SlashContract::EncodeEquivocation(
      0, offender, owners_[offender]->private_key(), first, second);
  auto receipt = Slash(evidence, 50);
  EXPECT_TRUE(receipt.success) << receipt.error;
  EXPECT_TRUE(state_.Has(keys::Slashed(offender)));
  EXPECT_TRUE(state_.Has(keys::Retired(offender)));
}

TEST_F(SlashContractTest, EquivocationRequiresTwoConflictingSignedTxs) {
  const uint32_t offender = 2;
  chain::Transaction first = BuildSubmit(offender, 0, 10, 0.3);
  // Identical payloads: no equivocation.
  EXPECT_FALSE(Slash(SlashContract::EncodeEquivocation(
                         0, offender, owners_[offender]->private_key(), first,
                         first),
                     50)
                   .success);
  // A second tx whose signature does not verify.
  // Signed bytes changed, signature stale.
  chain::Transaction tampered(FlippedPayload(first), first.sender(),
                              first.signature());
  EXPECT_FALSE(Slash(SlashContract::EncodeEquivocation(
                         0, offender, owners_[offender]->private_key(), first,
                         tampered),
                     51)
                   .success);
  // A conflicting pair signed by a *different* owner cannot convict.
  chain::Transaction other = BuildSubmit(3, 0, 11, 0.3);
  chain::Transaction other2 = chain::Transaction::Sign(
      FlippedPayload(other), schnorr_, sign_keys_[3], &rng_);
  EXPECT_FALSE(Slash(SlashContract::EncodeEquivocation(
                         0, offender, owners_[offender]->private_key(), other,
                         other2),
                     52)
                   .success);
  EXPECT_FALSE(state_.Has(keys::Slashed(offender)));
}

TEST_F(SlashContractTest, NormViolationConvictsOversizedUpdateOnly) {
  // Owner 3 submits a poisoned (hugely scaled) update; owner 0 an honest
  // one. The contract unmasks each with the revealed key and measures.
  ASSERT_TRUE(SubmitOwner(0, 0, 1, /*scale=*/0.3));
  ASSERT_TRUE(SubmitOwner(3, 0, 2, /*scale=*/50.0));

  // Accusing the honest owner is bogus: its unmasked norm is far under
  // the bound.
  auto bogus = Slash(
      SlashContract::EncodeNormViolation(0, 0, owners_[0]->private_key()),
      50);
  EXPECT_FALSE(bogus.success);
  EXPECT_FALSE(state_.Has(keys::Slashed(0)));
  EXPECT_TRUE(state_.Has(keys::Update(0, 0)));

  // The poisoned submitter is convicted.
  auto receipt = Slash(
      SlashContract::EncodeNormViolation(0, 3, owners_[3]->private_key()),
      51);
  EXPECT_TRUE(receipt.success) << receipt.error;
  EXPECT_TRUE(state_.Has(keys::Slashed(3)));
  EXPECT_FALSE(state_.Has(keys::Update(0, 3)));

  // The measured norms agree with the convictions.
  auto honest_norm = SlashContract::UnmaskedUpdateNorm(
      params_, 0, 0, owners_[0]->private_key(), state_);
  ASSERT_TRUE(honest_norm.ok());
  EXPECT_LT(*honest_norm, kNormBound);
}

TEST_F(SlashContractTest, LateNormViolationIsRefused) {
  // Owner 3's update is over the bound on its own, but its group's mean
  // is not, so the round completes and prunes the evidence. While the
  // round was open the accusation would have convicted; now it fails.
  ASSERT_TRUE(SubmitOwner(3, 0, 1, /*scale=*/5.0));
  auto norm = SlashContract::UnmaskedUpdateNorm(
      params_, 0, 3, owners_[3]->private_key(), state_);
  ASSERT_TRUE(norm.ok());
  ASSERT_GT(*norm, kNormBound);
  for (uint32_t i = 0; i < 3; ++i) ASSERT_TRUE(SubmitOwner(i, 0, i + 2));
  ASSERT_TRUE(state_.Has(keys::RoundComplete(0)));
  const crypto::Digest root = state_.StateRoot();

  auto receipt = Slash(
      SlashContract::EncodeNormViolation(0, 3, owners_[3]->private_key()),
      50);
  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("FailedPrecondition"), std::string::npos)
      << receipt.error;
  EXPECT_FALSE(state_.Has(keys::Slashed(3)));
  EXPECT_EQ(state_.StateRoot(), root);
}

TEST_F(SlashContractTest, LateEquivocationConvictsWithoutTouchingTheRound) {
  // Equivocation evidence travels in the payload, so it still convicts
  // after the round settled; the round's SVs and totals stay as they are.
  const uint32_t offender = 2;
  chain::Transaction first = BuildSubmit(offender, 0, 10, 0.3);
  ASSERT_TRUE(host_.ExecuteTransaction(first, &state_)->success);
  for (uint32_t i = 0; i < kOwners; ++i) {
    if (i == offender) continue;
    ASSERT_TRUE(SubmitOwner(i, 0, i + 1));
  }
  ASSERT_TRUE(state_.Has(keys::RoundComplete(0)));
  std::vector<double> round_sv, total_sv;
  for (uint32_t i = 0; i < kOwners; ++i) {
    round_sv.push_back(GetDouble(state_, keys::RoundSv(0, i)).value());
    total_sv.push_back(GetDouble(state_, keys::TotalSv(i)).value());
  }

  chain::Transaction second = chain::Transaction::Sign(
      FlippedPayload(first), schnorr_, sign_keys_[offender], &rng_);
  auto receipt = Slash(SlashContract::EncodeEquivocation(
                           0, offender, owners_[offender]->private_key(),
                           first, second),
                       50);
  EXPECT_TRUE(receipt.success) << receipt.error;
  EXPECT_TRUE(state_.Has(keys::Slashed(offender)));
  EXPECT_TRUE(state_.Has(keys::Retired(offender)));
  for (uint32_t i = 0; i < kOwners; ++i) {
    EXPECT_EQ(GetDouble(state_, keys::RoundSv(0, i)).value(), round_sv[i]);
    EXPECT_EQ(GetDouble(state_, keys::TotalSv(i)).value(), total_sv[i]);
  }
}

TEST_F(SlashContractTest, DoubleSlashAndRetiredOwnerAreRejected) {
  const uint32_t offender = 1, dealer = 2;
  crypto::ShamirShare forged = ForgedShare(offender, dealer);
  const Bytes evidence = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, forged,
      SignReveal(offender, 0, dealer, forged));
  ASSERT_TRUE(Slash(evidence, 50).success);
  // Slashing twice is idempotently refused.
  EXPECT_FALSE(Slash(evidence, 51).success);
}

TEST_F(SlashContractTest, AccusationFromUnregisteredSenderIsRejected) {
  const uint32_t offender = 1, dealer = 2;
  crypto::ShamirShare forged = ForgedShare(offender, dealer);
  const Bytes evidence = SlashContract::EncodeBadShare(
      0, offender, owners_[offender]->private_key(), dealer, forged,
      SignReveal(offender, 0, dealer, forged));
  auto stranger = schnorr_.GenerateKeyPair(&rng_);
  const chain::Transaction tx = chain::Transaction::Sign(
      {.contract = "slash", .method = "slash", .payload = evidence, .nonce = 50},
      schnorr_, stranger, &rng_);
  EXPECT_FALSE(host_.ExecuteTransaction(tx, &state_)->success);
  EXPECT_FALSE(state_.Has(keys::Slashed(offender)));
}

}  // namespace
}  // namespace bcfl::core
