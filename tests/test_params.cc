#include "core/params.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace bcfl::core {
namespace {

SetupParams ValidParams(uint32_t owners = 3) {
  SetupParams params;
  params.num_owners = owners;
  params.rounds = 5;
  params.num_groups = 2;
  params.seed_e = 77;
  params.fixed_point_bits = 24;
  params.weight_rows = 65;
  params.weight_cols = 10;
  for (uint32_t i = 0; i < owners; ++i) {
    params.schnorr_public_keys.push_back(crypto::UInt256(i + 100));
    params.dh_public_keys.push_back(crypto::UInt256(i + 200));
  }
  return params;
}

TEST(SetupParamsTest, ValidatesGoodParams) {
  EXPECT_TRUE(ValidParams().Validate().ok());
}

TEST(SetupParamsTest, SerializeRoundTrip) {
  SetupParams params = ValidParams(5);
  auto back = SetupParams::Deserialize(params.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_owners, 5u);
  EXPECT_EQ(back->rounds, params.rounds);
  EXPECT_EQ(back->num_groups, params.num_groups);
  EXPECT_EQ(back->seed_e, params.seed_e);
  EXPECT_EQ(back->fixed_point_bits, params.fixed_point_bits);
  EXPECT_EQ(back->weight_rows, params.weight_rows);
  EXPECT_EQ(back->weight_cols, params.weight_cols);
  ASSERT_EQ(back->schnorr_public_keys.size(), 5u);
  EXPECT_EQ(back->schnorr_public_keys[3], crypto::UInt256(103));
  EXPECT_EQ(back->dh_public_keys[4], crypto::UInt256(204));
}

TEST(SetupParamsTest, IsOwnerKeyMatchesTheSchnorrRoster) {
  const SetupParams params = ValidParams(3);
  EXPECT_TRUE(params.IsOwnerKey(crypto::UInt256(102)));
  EXPECT_FALSE(params.IsOwnerKey(crypto::UInt256(202)));  // A DH key.
}

TEST(SetupParamsTest, RoundGroupsPartitionTheOwnersPerRound) {
  const SetupParams params = ValidParams(5);
  auto groups = params.RoundGroups(3);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), params.num_groups);
  std::vector<size_t> members;
  for (const auto& group : *groups) {
    members.insert(members.end(), group.begin(), group.end());
  }
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(*params.RoundGroups(3), *groups);  // Same round, same groups.
}

TEST(SetupParamsTest, RejectsTrailingBytes) {
  Bytes wire = ValidParams().Serialize();
  wire.push_back(0);
  EXPECT_TRUE(SetupParams::Deserialize(wire).status().IsCorruption());
}

TEST(SetupParamsTest, RejectsTruncation) {
  Bytes wire = ValidParams().Serialize();
  wire.resize(wire.size() - 10);
  EXPECT_FALSE(SetupParams::Deserialize(wire).ok());
}

TEST(SetupParamsTest, ValidateRejectsBadGroupCount) {
  SetupParams params = ValidParams();
  params.num_groups = 0;
  EXPECT_FALSE(params.Validate().ok());
  params.num_groups = 4;  // > num_owners.
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SetupParamsTest, ValidateRejectsKeyCountMismatch) {
  SetupParams params = ValidParams();
  params.schnorr_public_keys.pop_back();
  EXPECT_FALSE(params.Validate().ok());
  params = ValidParams();
  params.dh_public_keys.push_back(crypto::UInt256(1));
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SetupParamsTest, ValidateRejectsZeroRoundsOrShape) {
  SetupParams params = ValidParams();
  params.rounds = 0;
  EXPECT_FALSE(params.Validate().ok());
  params = ValidParams();
  params.weight_rows = 0;
  EXPECT_FALSE(params.Validate().ok());
  params = ValidParams();
  params.num_owners = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SetupParamsTest, DeserializeRunsValidation) {
  SetupParams params = ValidParams();
  params.num_groups = 9;  // Invalid: > owners.
  EXPECT_FALSE(SetupParams::Deserialize(params.Serialize()).ok());
}

}  // namespace
}  // namespace bcfl::core
