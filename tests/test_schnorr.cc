#include "crypto/schnorr.h"

#include <gtest/gtest.h>

namespace bcfl::crypto {
namespace {

Bytes Msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

class SchnorrTest : public ::testing::Test {
 protected:
  Schnorr scheme_;
  Xoshiro256 rng_{4242};
};

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("transfer 10 tokens");
  SchnorrSignature sig = scheme_.Sign(key, msg, &rng_);
  EXPECT_TRUE(scheme_.Verify(key.public_key, msg, sig));
}

TEST_F(SchnorrTest, TamperedMessageFails) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  SchnorrSignature sig = scheme_.Sign(key, Msg("original"), &rng_);
  EXPECT_FALSE(scheme_.Verify(key.public_key, Msg("originaL"), sig));
}

TEST_F(SchnorrTest, WrongPublicKeyFails) {
  SchnorrKeyPair alice = scheme_.GenerateKeyPair(&rng_);
  SchnorrKeyPair bob = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("hello");
  SchnorrSignature sig = scheme_.Sign(alice, msg, &rng_);
  EXPECT_FALSE(scheme_.Verify(bob.public_key, msg, sig));
}

TEST_F(SchnorrTest, TamperedSignatureComponentsFail) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("payload");
  SchnorrSignature sig = scheme_.Sign(key, msg, &rng_);

  SchnorrSignature bad_r = sig;
  bad_r.r = bad_r.r.ModAdd(UInt256(1), scheme_.params().p);
  EXPECT_FALSE(scheme_.Verify(key.public_key, msg, bad_r));

  SchnorrSignature bad_s = sig;
  bad_s.s = bad_s.s.Add(UInt256(1));
  EXPECT_FALSE(scheme_.Verify(key.public_key, msg, bad_s));
}

TEST_F(SchnorrTest, RejectsOutOfGroupValues) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("x");
  SchnorrSignature sig = scheme_.Sign(key, msg, &rng_);

  SchnorrSignature zero_r = sig;
  zero_r.r = UInt256(0);
  EXPECT_FALSE(scheme_.Verify(key.public_key, msg, zero_r));

  // Public key outside the modulus.
  UInt256 huge = scheme_.params().p.Add(UInt256(5));
  EXPECT_FALSE(scheme_.Verify(huge, msg, sig));
}

TEST_F(SchnorrTest, EmptyMessageSigns) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  SchnorrSignature sig = scheme_.Sign(key, Bytes{}, &rng_);
  EXPECT_TRUE(scheme_.Verify(key.public_key, Bytes{}, sig));
}

TEST_F(SchnorrTest, DistinctNoncesPerSignature) {
  // Two signatures over the same message must differ (fresh k).
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("same");
  SchnorrSignature s1 = scheme_.Sign(key, msg, &rng_);
  SchnorrSignature s2 = scheme_.Sign(key, msg, &rng_);
  EXPECT_NE(s1.r, s2.r);
  EXPECT_TRUE(scheme_.Verify(key.public_key, msg, s1));
  EXPECT_TRUE(scheme_.Verify(key.public_key, msg, s2));
}

TEST_F(SchnorrTest, SerializationRoundTrip) {
  SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
  Bytes msg = Msg("serialize me");
  SchnorrSignature sig = scheme_.Sign(key, msg, &rng_);
  Bytes wire = sig.ToBytes();
  ASSERT_EQ(wire.size(), 64u);
  auto back = SchnorrSignature::FromBytes(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->r, sig.r);
  EXPECT_EQ(back->s, sig.s);
  EXPECT_TRUE(scheme_.Verify(key.public_key, msg, *back));
}

TEST_F(SchnorrTest, FromBytesRejectsWrongSize) {
  EXPECT_FALSE(SchnorrSignature::FromBytes(Bytes(63)).ok());
  EXPECT_FALSE(SchnorrSignature::FromBytes(Bytes(65)).ok());
}

TEST_F(SchnorrTest, ReferenceVerifyAgreesWithOptimizedPath) {
  // The optimized Montgomery/fixed-base path and the seed scalar path
  // must agree on accepts AND rejects, bit for bit.
  for (int i = 0; i < 4; ++i) {
    SchnorrKeyPair key = scheme_.GenerateKeyPair(&rng_);
    Bytes msg = Msg("equivalence " + std::to_string(i));
    SchnorrSignature sig = scheme_.Sign(key, msg, &rng_);
    EXPECT_TRUE(scheme_.Verify(key.public_key, msg, sig));
    EXPECT_TRUE(reference::SchnorrVerify(scheme_.params(), key.public_key,
                                         msg, sig));
    SchnorrSignature bad = sig;
    bad.s = bad.s.Add(UInt256(1));
    EXPECT_EQ(scheme_.Verify(key.public_key, msg, bad),
              reference::SchnorrVerify(scheme_.params(), key.public_key,
                                       msg, bad));
    EXPECT_FALSE(scheme_.Verify(key.public_key, msg, bad));
  }
}

class SchnorrManyKeysTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchnorrManyKeysTest, CrossVerificationMatrix) {
  Schnorr scheme;
  Xoshiro256 rng(GetParam());
  constexpr int kKeys = 3;
  std::vector<SchnorrKeyPair> keys;
  std::vector<SchnorrSignature> sigs;
  Bytes msg = Msg("matrix");
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(scheme.GenerateKeyPair(&rng));
    sigs.push_back(scheme.Sign(keys.back(), msg, &rng));
  }
  for (int i = 0; i < kKeys; ++i) {
    for (int j = 0; j < kKeys; ++j) {
      EXPECT_EQ(scheme.Verify(keys[i].public_key, msg, sigs[j]), i == j);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrManyKeysTest,
                         ::testing::Values(3, 17, 99));

}  // namespace
}  // namespace bcfl::crypto
