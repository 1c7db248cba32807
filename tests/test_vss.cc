#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/shamir.h"

namespace bcfl::crypto {
namespace {

using SSS = ShamirSecretSharing;

Bytes RandomSecret(size_t len, Xoshiro256* rng) {
  Bytes secret(len);
  for (auto& b : secret) b = static_cast<uint8_t>(rng->Next());
  return secret;
}

TEST(VssGroupTest, GeneratorHasOrderExactlyKPrime) {
  const GroupParams group = SSS::VssGroup();
  // P = 52 * kPrime + 1 = 13 * 2^63 - 51, a 65-bit prime, so the product
  // must be assembled limb-wise rather than in uint64 arithmetic.
  const UInt256 expected_p((13ULL << 63) - 51, 13ULL >> 1, 0, 0);
  EXPECT_EQ(group.p, expected_p);
  EXPECT_NE(group.g, UInt256(1));
  // g^kPrime == 1 and g^1 != 1: ord(g) divides the prime kPrime and is
  // not 1, so it is exactly kPrime — exponent arithmetic mod kPrime is
  // faithful to the group.
  EXPECT_EQ(group.g.ModPow(UInt256(SSS::kPrime), group.p), UInt256(1));
}

TEST(VssTest, SplitVerifiableSharesAllVerify) {
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(100);
  const Bytes secret = RandomSecret(32, &rng);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(secret, &rng, &commitment);
  ASSERT_EQ(shares.size(), 5u);
  ASSERT_FALSE(commitment.empty());
  // One polynomial row per 7-byte chunk, threshold coefficients each.
  EXPECT_EQ(commitment.rows.size(), (32 + SSS::kChunkBytes - 1) /
                                        SSS::kChunkBytes);
  for (const auto& row : commitment.rows) EXPECT_EQ(row.size(), 3u);
  for (const auto& share : shares) {
    EXPECT_TRUE(scheme->VerifyShare(share, commitment));
  }
}

TEST(VssTest, SplitVerifiableConsumesIdenticalRngStream) {
  // The seeded protocol must produce bit-identical shares whether or not
  // commitments are requested: SplitVerifiable derives the commitment
  // from the same coefficients, drawing no extra randomness.
  auto scheme = SSS::Create(4, 7);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng_a(200);
  Xoshiro256 rng_b(200);
  const Bytes secret = RandomSecret(29, &rng_a);
  (void)RandomSecret(29, &rng_b);  // Keep the streams aligned.

  auto plain = scheme->Split(secret, &rng_a);
  VssCommitment commitment;
  auto verifiable = scheme->SplitVerifiable(secret, &rng_b, &commitment);
  ASSERT_EQ(plain.size(), verifiable.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].x, verifiable[i].x);
    EXPECT_EQ(plain[i].values, verifiable[i].values);
  }
  // And the streams end at the same position.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(VssTest, ForgedShareValueFailsVerification) {
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(300);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(RandomSecret(16, &rng), &rng,
                                        &commitment);
  // The minimal in-field perturbation a byzantine holder can apply.
  ShamirShare forged = shares[2];
  forged.values[0] = SSS::FieldAdd(forged.values[0], 1);
  EXPECT_FALSE(scheme->VerifyShare(forged, commitment));
  // The untouched chunks alone do not rescue it; the original passes.
  EXPECT_TRUE(scheme->VerifyShare(shares[2], commitment));
}

TEST(VssTest, ShareAtWrongCoordinateFailsVerification) {
  auto scheme = SSS::Create(2, 4);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(301);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(RandomSecret(8, &rng), &rng,
                                        &commitment);
  // Claiming another roster slot's x with one's own values is a forgery.
  ShamirShare moved = shares[0];
  moved.x = shares[1].x;
  EXPECT_FALSE(scheme->VerifyShare(moved, commitment));
}

TEST(VssTest, StructurallyInvalidSharesFailClosed) {
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(302);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(RandomSecret(21, &rng), &rng,
                                        &commitment);

  ShamirShare zero_x = shares[0];
  zero_x.x = 0;  // x = 0 would "share" the secret itself.
  EXPECT_FALSE(scheme->VerifyShare(zero_x, commitment));

  ShamirShare big_x = shares[0];
  big_x.x = SSS::kPrime;  // Out of field.
  EXPECT_FALSE(scheme->VerifyShare(big_x, commitment));

  ShamirShare big_value = shares[0];
  big_value.values[0] = SSS::kPrime;  // Out of field.
  EXPECT_FALSE(scheme->VerifyShare(big_value, commitment));

  ShamirShare short_share = shares[0];
  short_share.values.pop_back();  // Chunk count != commitment rows.
  EXPECT_FALSE(scheme->VerifyShare(short_share, commitment));

  ShamirShare long_share = shares[0];
  long_share.values.push_back(1);
  EXPECT_FALSE(scheme->VerifyShare(long_share, commitment));

  // A commitment with the wrong coefficient count (degree mismatch)
  // likewise convicts rather than erroring.
  VssCommitment truncated = commitment;
  for (auto& row : truncated.rows) row.pop_back();
  EXPECT_FALSE(scheme->VerifyShare(shares[0], truncated));

  EXPECT_FALSE(scheme->VerifyShare(shares[0], VssCommitment{}));
}

TEST(VssTest, ExactlyThresholdRosterVerifiesAndReconstructs) {
  // threshold == num_shares: every single holder is load-bearing.
  auto scheme = SSS::Create(4, 4);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(303);
  const Bytes secret = RandomSecret(32, &rng);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(secret, &rng, &commitment);
  for (const auto& share : shares) {
    EXPECT_TRUE(scheme->VerifyShare(share, commitment));
  }
  auto back = scheme->Reconstruct(shares, secret.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, secret);
  // With one share forged, verification pinpoints it and the remaining
  // three cannot meet the threshold — recovery must fail closed, never
  // reconstruct a wrong key.
  shares[1].values[0] = SSS::FieldAdd(shares[1].values[0], 1);
  EXPECT_FALSE(scheme->VerifyShare(shares[1], commitment));
}

TEST(VssTest, BatchPathMatchesReferenceVerification) {
  // The Montgomery GroupContext path and the plain-ModPow reference must
  // agree on every verdict — accepting and rejecting alike.
  auto scheme = SSS::Create(3, 6);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(304);
  for (int trial = 0; trial < 4; ++trial) {
    VssCommitment commitment;
    auto shares = scheme->SplitVerifiable(
        RandomSecret(1 + static_cast<size_t>(trial) * 9, &rng), &rng,
        &commitment);
    for (auto& share : shares) {
      EXPECT_TRUE(scheme->VerifyShare(share, commitment));
      EXPECT_TRUE(scheme->VerifyShareReference(share, commitment));
      ShamirShare forged = share;
      forged.values.back() = SSS::FieldAdd(forged.values.back(), 1);
      EXPECT_FALSE(scheme->VerifyShare(forged, commitment));
      EXPECT_FALSE(scheme->VerifyShareReference(forged, commitment));
    }
  }
}

TEST(VssTest, CommitmentSerializationRoundTrips) {
  auto scheme = SSS::Create(3, 5);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(305);
  VssCommitment commitment;
  auto shares = scheme->SplitVerifiable(RandomSecret(20, &rng), &rng,
                                        &commitment);
  const Bytes wire = commitment.Serialize();
  auto back = VssCommitment::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, commitment);
  // The deserialized commitment still verifies the original shares.
  for (const auto& share : shares) {
    EXPECT_TRUE(scheme->VerifyShare(share, *back));
  }
}

TEST(VssTest, DeserializeRejectsMalformedInput) {
  auto scheme = SSS::Create(2, 3);
  ASSERT_TRUE(scheme.ok());
  Xoshiro256 rng(306);
  VssCommitment commitment;
  (void)scheme->SplitVerifiable(RandomSecret(10, &rng), &rng, &commitment);
  const Bytes wire = commitment.Serialize();

  // Truncation anywhere must be caught.
  for (size_t cut : {size_t{1}, wire.size() / 2, wire.size() - 1}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(VssCommitment::Deserialize(truncated).ok()) << cut;
  }
  // Trailing bytes are not silently ignored.
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(VssCommitment::Deserialize(padded).ok());
  // An element >= P is outside the group.
  const GroupParams group = SSS::VssGroup();
  VssCommitment out_of_group = commitment;
  out_of_group.rows[0][0] = group.p;
  EXPECT_FALSE(VssCommitment::Deserialize(out_of_group.Serialize()).ok());
}

/// Shares of a 32-byte secret from a (3, 6) split, with a commitment.
struct RevealFixture {
  RevealFixture() : scheme(*SSS::Create(3, 6)), rng(400) {
    secret = RandomSecret(32, &rng);
    shares = scheme.SplitVerifiable(secret, &rng, &commitment);
  }
  /// The share of holder `h`, off its committed polynomial.
  ShamirShare Forged(size_t h) const {
    ShamirShare share = shares[h];
    share.values[0] = SSS::FieldAdd(share.values[0], 1);
    return share;
  }

  SSS scheme;
  Xoshiro256 rng;
  Bytes secret;
  VssCommitment commitment;
  std::vector<ShamirShare> shares;
};

TEST(RevealVerifiedTest, ForgerBeforeTheThresholdIsRejectedAndReported) {
  RevealFixture f;
  const std::vector<ShamirShare> candidates = {f.shares[0], f.Forged(1),
                                               f.shares[2], f.shares[3],
                                               f.shares[4]};
  auto reveal = f.scheme.RevealVerified(candidates, f.commitment, 32);
  ASSERT_TRUE(reveal.ok()) << reveal.status().ToString();
  EXPECT_EQ(reveal->secret, f.secret);
  EXPECT_EQ(reveal->rejected, std::vector<size_t>{1});
}

TEST(RevealVerifiedTest, ForgerAfterTheThresholdIsNotExamined) {
  RevealFixture f;
  const std::vector<ShamirShare> candidates = {f.shares[0], f.shares[1],
                                               f.shares[2], f.Forged(3)};
  auto reveal = f.scheme.RevealVerified(candidates, f.commitment, 32);
  ASSERT_TRUE(reveal.ok()) << reveal.status().ToString();
  EXPECT_EQ(reveal->secret, f.secret);
  EXPECT_TRUE(reveal->rejected.empty());
}

TEST(RevealVerifiedTest, BelowThresholdValidSharesFailClosed) {
  RevealFixture f;
  // Two valid shares of a threshold-3 split, plus a forgery that would
  // otherwise make up the count.
  const std::vector<ShamirShare> candidates = {f.shares[0], f.Forged(4),
                                               f.shares[5]};
  auto reveal = f.scheme.RevealVerified(candidates, f.commitment, 32);
  EXPECT_TRUE(reveal.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace bcfl::crypto
