// The contract-state records: key layout, the fail-closed value readers,
// the setup loader and the conviction writers.

#include "core/state_keys.h"

#include <gtest/gtest.h>

namespace bcfl::core {
namespace {

/// Stores the value at `key` with one extra byte, and again with its last
/// byte cut, and expects `read` to fail with Corruption both times.
template <typename Read>
void ExpectExactLength(chain::ContractState* state, const std::string& key,
                       Read read) {
  ASSERT_TRUE(read().ok());
  const Bytes exact = *state->Get(key);
  Bytes longer = exact;
  longer.push_back(0);
  state->Put(key, longer);
  EXPECT_TRUE(read().status().IsCorruption()) << key << " one byte long";
  Bytes shorter(exact.begin(), exact.end() - 1);
  state->Put(key, shorter);
  EXPECT_TRUE(read().status().IsCorruption()) << key << " one byte short";
}

TEST(StateRecordReaderTest, DoubleNeedsExactlyEightBytes) {
  chain::ContractState state;
  PutDouble(&state, keys::TotalSv(1), 0.25);
  ExpectExactLength(&state, keys::TotalSv(1),
                    [&] { return GetDouble(state, keys::TotalSv(1)); });
}

TEST(StateRecordReaderTest, MatrixNeedsExactlyItsShape) {
  chain::ContractState state;
  ml::Matrix m(3, 2);
  m.mutable_data() = {1, 2, 3, 4, 5, 6};
  PutMatrix(&state, keys::GlobalModel(0), m);
  auto back = GetMatrix(state, keys::GlobalModel(0));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
  ExpectExactLength(&state, keys::GlobalModel(0),
                    [&] { return GetMatrix(state, keys::GlobalModel(0)); });
}

TEST(StateRecordReaderTest, U64VectorNeedsExactlyItsLength) {
  chain::ContractState state;
  PutU64Vector(&state, keys::Update(2, 1), {7, 8, 9});
  ExpectExactLength(&state, keys::Update(2, 1),
                    [&] { return GetU64Vector(state, keys::Update(2, 1)); });
}

TEST(StateRecordReaderTest, U64IsZeroOnlyWhenAbsent) {
  chain::ContractState state;
  auto absent = GetU64OrZero(state, keys::RewardPool());
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 0u);
  PutU64(&state, keys::RewardPool(), 1500);
  EXPECT_EQ(*GetU64OrZero(state, keys::RewardPool()), 1500u);
  ExpectExactLength(&state, keys::RewardPool(),
                    [&] { return GetU64OrZero(state, keys::RewardPool()); });
}

TEST(StateRecordReaderTest, RetirementNeedsRoundAndKey) {
  chain::ContractState state;
  RetireOwner(&state, 1, 4, crypto::UInt256(99));
  auto retired = RetiredBefore(state, 2);
  ASSERT_TRUE(retired.ok());
  ASSERT_EQ(retired->size(), 1u);
  EXPECT_EQ(retired->at(4), crypto::UInt256(99));
  // Retired in the round asked about: counted by that round's drops.
  EXPECT_TRUE(RetiredBefore(state, 1)->empty());
  ExpectExactLength(&state, keys::Retired(4),
                    [&] { return RetiredBefore(state, 2); });
}

TEST(StateRecordReaderTest, RetirementKeyNeedsAnOwnerIndex) {
  chain::ContractState state;
  ByteWriter record;
  record.WriteU64(0);
  record.WriteRaw(Bytes(32, 0).data(), 32);
  state.Put(keys::RetiredPrefix() + "x", record.Take());
  EXPECT_TRUE(RetiredBefore(state, 1).status().IsCorruption());
}

TEST(StateKeysTest, TrailingIndexParsesTheLastComponent) {
  EXPECT_EQ(*keys::TrailingIndex(keys::Dropped(3, 7)), 7u);
  EXPECT_EQ(*keys::TrailingIndex(keys::Flagged(0, 2)), 2u);
  EXPECT_EQ(*keys::TrailingIndex(keys::Retired(4294967295u)), 4294967295u);
  for (const char* bad : {"dropped/00000001/", "dropped/00000001/x7",
                          "dropped/00000001/7x", "dropped/00000001/-1",
                          "retired/4294967296", ""}) {
    EXPECT_TRUE(keys::TrailingIndex(bad).status().IsCorruption()) << bad;
  }
}

TEST(StateKeysTest, RewardKeysKeepTheirLayout) {
  EXPECT_EQ(keys::RewardPool(), "reward/pool");
  EXPECT_EQ(keys::RewardDistributed(), "reward/distributed");
  EXPECT_EQ(keys::RewardAllocation(3), "reward/allocation/00000003");
  EXPECT_EQ(keys::RewardClaimed(12), "reward/claimed/00000012");
  EXPECT_EQ(keys::RewardBurned(), "reward/burned");
}

TEST(StateKeysTest, LoadSetupParamsNeedsTheSetupRecord) {
  chain::ContractState state;
  EXPECT_TRUE(LoadSetupParams(state).status().IsFailedPrecondition());
  state.Put(keys::SetupParams(), Bytes{1, 2, 3});
  EXPECT_TRUE(LoadSetupParams(state).status().IsCorruption());
}

TEST(ConvictionRecordTest, ConvictionWritesTheRetirementAndSlashRecords) {
  chain::ContractState state;
  PutU64Vector(&state, keys::Update(2, 5), {1, 2});
  const crypto::UInt256 key(0x1234);
  ConvictOwner(&state, 2, 5, key, SlashKind::kEquivocation);

  EXPECT_FALSE(state.Has(keys::Update(2, 5)));
  EXPECT_EQ(*state.Get(keys::Dropped(2, 5)), key.ToBytes());
  ByteWriter retired;
  retired.WriteU64(2);
  retired.WriteRaw(key.ToBytes().data(), 32);
  EXPECT_EQ(*state.Get(keys::Retired(5)), retired.buffer());
  ByteWriter slashed;
  slashed.WriteU64(2);
  slashed.WriteU8(2);
  EXPECT_EQ(*state.Get(keys::Slashed(5)), slashed.buffer());
}

TEST(ConvictionRecordTest, RetirementAloneWritesNoSlashRecord) {
  chain::ContractState state;
  RetireOwner(&state, 0, 1, crypto::UInt256(3));
  EXPECT_TRUE(state.Has(keys::Dropped(0, 1)));
  EXPECT_TRUE(state.Has(keys::Retired(1)));
  EXPECT_FALSE(state.Has(keys::Slashed(1)));
}

}  // namespace
}  // namespace bcfl::core
