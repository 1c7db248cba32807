#include "core/reward_contract.h"

#include <gtest/gtest.h>

#include "chain/contract_host.h"
#include "core/fl_contract.h"
#include "core/params.h"
#include "core/state_keys.h"

namespace bcfl::core {
namespace {

class RewardFixture : public ::testing::Test {
 protected:
  static constexpr uint32_t kOwners = 4;

  RewardFixture() : rng_(77) {
    for (uint32_t i = 0; i < kOwners; ++i) {
      keys_.push_back(schnorr_.GenerateKeyPair(&rng_));
    }
    params_.num_owners = kOwners;
    params_.rounds = 2;
    params_.num_groups = 2;
    params_.weight_rows = 3;
    params_.weight_cols = 2;
    for (uint32_t i = 0; i < kOwners; ++i) {
      params_.schnorr_public_keys.push_back(keys_[i].public_key);
      params_.dh_public_keys.push_back(crypto::UInt256(i + 500));
    }
    host_ = std::make_unique<chain::ContractHost>(schnorr_);
    EXPECT_TRUE(host_->Register(std::make_shared<RewardContract>()).ok());

    // Seed the state as FlContract would have left it after training.
    state_.Put(keys::SetupParams(), params_.Serialize());
    ByteWriter marker;
    marker.WriteU8(1);
    state_.Put(keys::RoundComplete(1), marker.Take());
    // SVs: owner 0 best, owner 3 negative (clamps to zero).
    PutDouble(&state_, keys::TotalSv(0), 0.6);
    PutDouble(&state_, keys::TotalSv(1), 0.3);
    PutDouble(&state_, keys::TotalSv(2), 0.1);
    PutDouble(&state_, keys::TotalSv(3), -0.2);
  }

  chain::Transaction Tx(const std::string& method, Bytes payload,
                        uint32_t signer, uint64_t nonce) {
    return chain::Transaction::Sign(
        {.contract = "reward",
         .method = method,
         .payload = std::move(payload),
         .nonce = nonce},
        schnorr_, keys_[signer], &rng_);
  }

  bool Exec(const chain::Transaction& tx) {
    auto receipt = host_->ExecuteTransaction(tx, &state_);
    EXPECT_TRUE(receipt.ok());
    return receipt->success;
  }

  crypto::Schnorr schnorr_;
  Xoshiro256 rng_;
  std::vector<crypto::SchnorrKeyPair> keys_;
  SetupParams params_;
  std::unique_ptr<chain::ContractHost> host_;
  chain::ContractState state_;
};

TEST_F(RewardFixture, FundAccumulates) {
  EXPECT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(1000), 0, 1)));
  EXPECT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(500), 1, 2)));
  EXPECT_EQ(*GetU64OrZero(state_, keys::RewardPool()), 1500u);
}

TEST_F(RewardFixture, FundRejectsZeroAndGarbage) {
  EXPECT_FALSE(Exec(Tx("fund", RewardContract::EncodeFund(0), 0, 1)));
  EXPECT_FALSE(Exec(Tx("fund", Bytes{1, 2}, 0, 2)));
}

TEST_F(RewardFixture, DistributeSplitsProportionallyAndExactly) {
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(1000), 0, 1)));
  ASSERT_TRUE(Exec(Tx("distribute", {}, 0, 2)));

  // Positive scores 0.6 / 0.3 / 0.1 of total 1.0; owner 3 clamped to 0.
  uint64_t a0 = *GetU64OrZero(state_, keys::RewardAllocation(0));
  uint64_t a1 = *GetU64OrZero(state_, keys::RewardAllocation(1));
  uint64_t a2 = *GetU64OrZero(state_, keys::RewardAllocation(2));
  uint64_t a3 = *GetU64OrZero(state_, keys::RewardAllocation(3));
  EXPECT_EQ(a0, 600u);
  EXPECT_EQ(a1, 300u);
  EXPECT_EQ(a2, 100u);
  EXPECT_EQ(a3, 0u);
  EXPECT_EQ(a0 + a1 + a2 + a3, 1000u);  // No dust lost.
}

TEST_F(RewardFixture, DustGoesToLargestRemainders) {
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(1001), 0, 1)));
  ASSERT_TRUE(Exec(Tx("distribute", {}, 0, 2)));
  uint64_t total = 0;
  for (uint32_t i = 0; i < kOwners; ++i) {
    total += *GetU64OrZero(state_, keys::RewardAllocation(i));
  }
  EXPECT_EQ(total, 1001u);
}

TEST_F(RewardFixture, DistributeRequiresFundsAndCompletion) {
  // No funds yet.
  EXPECT_FALSE(Exec(Tx("distribute", {}, 0, 1)));
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(100), 0, 2)));
  // Remove the completion marker: distribution must now fail.
  state_.Delete(keys::RoundComplete(1));
  EXPECT_FALSE(Exec(Tx("distribute", {}, 0, 3)));
}

TEST_F(RewardFixture, DoubleDistributeFails) {
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(100), 0, 1)));
  ASSERT_TRUE(Exec(Tx("distribute", {}, 0, 2)));
  EXPECT_FALSE(Exec(Tx("distribute", {}, 0, 3)));
  // Late funding is also locked out.
  EXPECT_FALSE(Exec(Tx("fund", RewardContract::EncodeFund(5), 0, 4)));
}

TEST_F(RewardFixture, ClaimRequiresOwnKeyAndHappensOnce) {
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(1000), 0, 1)));
  ASSERT_TRUE(Exec(Tx("distribute", {}, 0, 2)));

  // Owner 1 cannot claim owner 0's allocation.
  EXPECT_FALSE(Exec(Tx("claim", RewardContract::EncodeClaim(0), 1, 3)));
  // Owner 0 claims its own.
  EXPECT_TRUE(Exec(Tx("claim", RewardContract::EncodeClaim(0), 0, 4)));
  EXPECT_EQ(*GetU64OrZero(state_, keys::RewardClaimed(0)), 600u);
  // Double claim fails.
  EXPECT_FALSE(Exec(Tx("claim", RewardContract::EncodeClaim(0), 0, 5)));
}

TEST_F(RewardFixture, ClaimBeforeDistributionFails) {
  EXPECT_FALSE(Exec(Tx("claim", RewardContract::EncodeClaim(0), 0, 1)));
}

TEST_F(RewardFixture, AllZeroScoresSplitEvenly) {
  for (uint32_t i = 0; i < kOwners; ++i) {
    PutDouble(&state_, keys::TotalSv(i), -1.0);
  }
  ASSERT_TRUE(Exec(Tx("fund", RewardContract::EncodeFund(100), 0, 1)));
  ASSERT_TRUE(Exec(Tx("distribute", {}, 0, 2)));
  EXPECT_EQ(*GetU64OrZero(state_, keys::RewardAllocation(1)), 25u);
  uint64_t total = 0;
  for (uint32_t i = 0; i < kOwners; ++i) {
    total += *GetU64OrZero(state_, keys::RewardAllocation(i));
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(RewardFixture, UnknownMethodFails) {
  EXPECT_FALSE(Exec(Tx("steal", {}, 0, 1)));
}

}  // namespace
}  // namespace bcfl::core
