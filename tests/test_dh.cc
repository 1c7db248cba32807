#include "crypto/dh.h"

#include <gtest/gtest.h>

#include <vector>

namespace bcfl::crypto {
namespace {

TEST(GroupParamsTest, DefaultIs2To255Minus19) {
  GroupParams params = GroupParams::Default();
  EXPECT_EQ(params.p.ToHex(),
            "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");
  EXPECT_EQ(params.g, UInt256(2));
}

TEST(DiffieHellmanTest, KeyPairHasValidRange) {
  DiffieHellman dh;
  Xoshiro256 rng(1);
  DhKeyPair pair = dh.GenerateKeyPair(&rng);
  EXPECT_FALSE(pair.private_key.IsZero());
  EXPECT_LT(pair.private_key, dh.params().p);
  EXPECT_FALSE(pair.public_key.IsZero());
  EXPECT_LT(pair.public_key, dh.params().p);
}

TEST(DiffieHellmanTest, PublicKeyMatchesModPowForAnyExponent) {
  // A revealed key is any 32 bytes, so the fixed-base table must agree
  // with plain square-and-multiply on the whole 256-bit range, including
  // exponents at or above p.
  DiffieHellman dh;
  const UInt256& p = dh.params().p;
  const UInt256& g = dh.params().g;
  Xoshiro256 rng(5);
  std::vector<UInt256> exponents = {UInt256(0), UInt256(1), p,
                                    UInt256(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
  for (int i = 0; i < 4; ++i) {
    exponents.emplace_back(rng.Next(), rng.Next(), rng.Next(), rng.Next());
  }
  for (const UInt256& x : exponents) {
    EXPECT_EQ(dh.PublicKey(x), g.ModPow(x, p)) << x.ToHex();
  }
  DhKeyPair pair = dh.GenerateKeyPair(&rng);
  EXPECT_EQ(dh.PublicKey(pair.private_key), pair.public_key);
}

class DhAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DhAgreementTest, BothSidesDeriveSameSecret) {
  DiffieHellman dh;
  Xoshiro256 rng(GetParam());
  DhKeyPair alice = dh.GenerateKeyPair(&rng);
  DhKeyPair bob = dh.GenerateKeyPair(&rng);
  UInt256 alice_view = dh.ComputeShared(alice.private_key, bob.public_key);
  UInt256 bob_view = dh.ComputeShared(bob.private_key, alice.public_key);
  EXPECT_EQ(alice_view, bob_view);
  EXPECT_FALSE(alice_view.IsZero());
}

TEST_P(DhAgreementTest, ThirdPartyDerivesDifferentSecret) {
  DiffieHellman dh;
  Xoshiro256 rng(GetParam() + 100);
  DhKeyPair alice = dh.GenerateKeyPair(&rng);
  DhKeyPair bob = dh.GenerateKeyPair(&rng);
  DhKeyPair eve = dh.GenerateKeyPair(&rng);
  UInt256 ab = dh.ComputeShared(alice.private_key, bob.public_key);
  UInt256 eb = dh.ComputeShared(eve.private_key, bob.public_key);
  EXPECT_NE(ab, eb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DhAgreementTest,
                         ::testing::Values(1, 7, 42, 1000));

TEST(DiffieHellmanTest, DeterministicGivenRngSeed) {
  DiffieHellman dh;
  Xoshiro256 rng1(5), rng2(5);
  DhKeyPair a = dh.GenerateKeyPair(&rng1);
  DhKeyPair b = dh.GenerateKeyPair(&rng2);
  EXPECT_EQ(a.private_key, b.private_key);
  EXPECT_EQ(a.public_key, b.public_key);
}

TEST(DiffieHellmanTest, DeriveKeyLabelSeparation) {
  UInt256 shared(123456789ULL);
  auto k1 = DiffieHellman::DeriveKey(shared, "mask");
  auto k2 = DiffieHellman::DeriveKey(shared, "cipher");
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, DiffieHellman::DeriveKey(shared, "mask"));
}

TEST(DiffieHellmanTest, DeriveKeyDependsOnSecret) {
  auto k1 = DiffieHellman::DeriveKey(UInt256(1), "mask");
  auto k2 = DiffieHellman::DeriveKey(UInt256(2), "mask");
  EXPECT_NE(k1, k2);
}

TEST(RandomInRangeTest, StaysWithinBounds) {
  Xoshiro256 rng(9);
  UInt256 low(100);
  UInt256 high(200);
  for (int i = 0; i < 200; ++i) {
    UInt256 v = RandomInRange(&rng, low, high);
    EXPECT_GE(v, low);
    EXPECT_LE(v, high);
  }
}

TEST(RandomInRangeTest, DegenerateRange) {
  Xoshiro256 rng(11);
  UInt256 point(42);
  EXPECT_EQ(RandomInRange(&rng, point, point), point);
}

}  // namespace
}  // namespace bcfl::crypto
