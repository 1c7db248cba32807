#include "crypto/shamir.h"

#include <gtest/gtest.h>

namespace bcfl::crypto {
namespace {

using SSS = ShamirSecretSharing;

TEST(ShamirFieldTest, AddSubInverse) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = rng.NextBounded(SSS::kPrime);
    uint64_t b = rng.NextBounded(SSS::kPrime);
    EXPECT_EQ(SSS::FieldSub(SSS::FieldAdd(a, b), b), a);
  }
}

TEST(ShamirFieldTest, MulMatchesInt128) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = rng.NextBounded(SSS::kPrime);
    uint64_t b = rng.NextBounded(SSS::kPrime);
    uint64_t expected = static_cast<uint64_t>(
        static_cast<unsigned __int128>(a) * b % SSS::kPrime);
    EXPECT_EQ(SSS::FieldMul(a, b), expected);
  }
}

TEST(ShamirFieldTest, InverseIsMultiplicativeInverse) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) {
    uint64_t a = 1 + rng.NextBounded(SSS::kPrime - 1);
    EXPECT_EQ(SSS::FieldMul(a, SSS::FieldInv(a)), 1u);
  }
}

TEST(ShamirFieldTest, PowEdgeCases) {
  EXPECT_EQ(SSS::FieldPow(0, 0), 1u);  // Convention.
  EXPECT_EQ(SSS::FieldPow(5, 0), 1u);
  EXPECT_EQ(SSS::FieldPow(5, 1), 5u);
  EXPECT_EQ(SSS::FieldPow(2, 10), 1024u);
}

TEST(ShamirTest, CreateValidatesArguments) {
  EXPECT_FALSE(SSS::Create(0, 5).ok());
  EXPECT_FALSE(SSS::Create(6, 5).ok());
  EXPECT_TRUE(SSS::Create(1, 1).ok());
  EXPECT_TRUE(SSS::Create(3, 5).ok());
}

class ShamirRoundTripTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(ShamirRoundTripTest, SplitReconstruct) {
  auto [threshold, num_shares, secret_len] = GetParam();
  auto scheme = SSS::Create(threshold, num_shares);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(1234);
  Bytes secret(secret_len);
  for (auto& b : secret) b = static_cast<uint8_t>(rng.Next());

  auto shares = scheme->Split(secret, &rng);
  ASSERT_EQ(shares.size(), num_shares);

  // Exactly threshold shares reconstruct.
  std::vector<ShamirShare> subset(shares.begin(),
                                  shares.begin() + static_cast<long>(threshold));
  auto back = scheme->Reconstruct(subset, secret.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, secret);

  // A different subset (from the end) also reconstructs.
  std::vector<ShamirShare> tail(shares.end() - static_cast<long>(threshold),
                                shares.end());
  auto back2 = scheme->Reconstruct(tail, secret.size());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(*back2, secret);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ShamirRoundTripTest,
    ::testing::Values(std::make_tuple(1, 1, 16), std::make_tuple(2, 3, 32),
                      std::make_tuple(3, 5, 32), std::make_tuple(5, 9, 32),
                      std::make_tuple(5, 9, 7), std::make_tuple(2, 9, 1),
                      std::make_tuple(9, 9, 64)));

TEST(ShamirTest, InsufficientSharesFail) {
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(7);
  Bytes secret = {1, 2, 3, 4};
  auto shares = scheme->Split(secret, &rng);
  std::vector<ShamirShare> two(shares.begin(), shares.begin() + 2);
  EXPECT_TRUE(
      scheme->Reconstruct(two, secret.size()).status().IsFailedPrecondition());
}

TEST(ShamirTest, BelowThresholdRevealsNothingLooking) {
  // With t-1 shares every candidate secret is equally consistent; at
  // minimum, reconstructing from a *wrong-size* quorum must not
  // accidentally yield the secret. We check that using t shares where
  // one share is substituted by a random forgery yields a different
  // secret (overwhelming probability).
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(8);
  Bytes secret = {42, 43, 44, 45, 46, 47, 48, 49};
  auto shares = scheme->Split(secret, &rng);
  std::vector<ShamirShare> forged(shares.begin(), shares.begin() + 3);
  for (auto& v : forged[0].values) v = rng.NextBounded(SSS::kPrime);
  auto back = scheme->Reconstruct(forged, secret.size());
  ASSERT_TRUE(back.ok());
  EXPECT_NE(*back, secret);
}

TEST(ShamirTest, DuplicateSharesRejected) {
  auto scheme = SSS::Create(2, 4);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(9);
  auto shares = scheme->Split(Bytes{9, 9}, &rng);
  std::vector<ShamirShare> dup = {shares[0], shares[0]};
  EXPECT_TRUE(scheme->Reconstruct(dup, 2).status().IsInvalidArgument());
}

TEST(ShamirTest, InvalidXCoordinateRejected) {
  auto scheme = SSS::Create(2, 3);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(10);
  auto shares = scheme->Split(Bytes{5}, &rng);
  shares[0].x = 0;
  EXPECT_TRUE(
      scheme->Reconstruct(shares, 1).status().IsInvalidArgument());
}

TEST(ShamirTest, MismatchedChunkCountsRejected) {
  auto scheme = SSS::Create(2, 3);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(11);
  auto shares = scheme->Split(Bytes(14), &rng);  // 2 chunks.
  shares[1].values.pop_back();
  EXPECT_TRUE(
      scheme->Reconstruct(shares, 14).status().IsInvalidArgument());
}

TEST(ShamirTest, EmptySecretRoundTrips) {
  auto scheme = SSS::Create(2, 3);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(12);
  auto shares = scheme->Split(Bytes{}, &rng);
  auto back = scheme->Reconstruct(shares, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(ShamirTest, ExtraSharesBeyondThresholdIgnoredConsistently) {
  auto scheme = SSS::Create(3, 7);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(13);
  Bytes secret = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33};
  auto shares = scheme->Split(secret, &rng);
  auto back = scheme->Reconstruct(shares, secret.size());  // All 7.
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, secret);
}

TEST(ShamirVssTest, VerifiedQuorumReconstructsAfterDroppingForgery) {
  // The recovery-path contract (PR 9): verify every revealed share
  // against the dealer's Feldman commitment, drop what fails, and
  // reconstruct from the survivors — the forged share never taints the
  // secret, and the forger is identified by slot.
  auto scheme = SSS::Create(3, 6);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(90);
  Bytes secret = {7, 7, 7, 7, 7, 7, 7, 7};
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(secret, &rng, &commitment);
  shares[1].values[0] = SSS::FieldAdd(shares[1].values[0], 1);  // Forged.

  std::vector<ShamirShare> accepted;
  for (const auto& share : shares) {
    if (scheme->VerifyShare(share, commitment)) accepted.push_back(share);
  }
  ASSERT_EQ(accepted.size(), 5u);  // Exactly the forger excluded.
  EXPECT_EQ(accepted[1].x, shares[2].x);
  auto back = scheme->Reconstruct(accepted, secret.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, secret);
}

TEST(ShamirVssTest, VerifyShareIndexZeroAndCountMismatchRejected) {
  auto scheme = SSS::Create(2, 4);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(91);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(Bytes{1, 2, 3}, &rng, &commitment);
  ShamirShare zero = shares[0];
  zero.x = 0;
  EXPECT_FALSE(scheme->VerifyShare(zero, commitment));
  ShamirShare short_share = shares[0];
  short_share.values.clear();
  EXPECT_FALSE(scheme->VerifyShare(short_share, commitment));
  EXPECT_TRUE(scheme->VerifyShare(shares[0], commitment));
}

TEST(ShamirVssTest, ExactlyThresholdRosterEveryShareVerifies) {
  auto scheme = SSS::Create(5, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(92);
  Bytes secret(32);
  for (auto& b : secret) b = static_cast<uint8_t>(rng.Next());
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(secret, &rng, &commitment);
  for (const auto& share : shares) {
    EXPECT_TRUE(scheme->VerifyShare(share, commitment));
    EXPECT_EQ(scheme->VerifyShare(share, commitment),
              scheme->VerifyShareReference(share, commitment));
  }
  auto back = scheme->Reconstruct(shares, secret.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, secret);
}

}  // namespace
}  // namespace bcfl::crypto
