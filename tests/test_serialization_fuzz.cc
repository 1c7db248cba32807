// Property tests: every deserializer must treat arbitrary corrupted or
// random bytes as data, never as a crash — miners parse payloads from
// untrusted peers.

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "chain/block.h"
#include "chain/transaction.h"
#include "common/rng.h"
#include "core/params.h"
#include "ml/matrix.h"

namespace bcfl {
namespace {

chain::Transaction MakeTx(Xoshiro256* rng) {
  crypto::Schnorr scheme;
  auto key = scheme.GenerateKeyPair(rng);
  return chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "submit_update",
       .payload = Bytes(64, 0x5a),
       .nonce = rng->Next()},
      scheme, key, rng);
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RandomBytesNeverCrashDeserializers) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.NextBounded(300);
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    // Any outcome is fine as long as it is a Status, not UB.
    (void)chain::Transaction::Deserialize(junk);
    (void)chain::Block::Deserialize(junk);
    (void)core::SetupParams::Deserialize(junk);
    (void)crypto::SchnorrSignature::FromBytes(junk);
    ByteReader reader(junk);
    (void)ml::Matrix::Deserialize(&reader);
  }
  SUCCEED();
}

TEST_P(FuzzTest, BitFlippedTransactionsEitherFailOrVerifyFalse) {
  Xoshiro256 rng(GetParam() + 1000);
  crypto::Schnorr scheme;
  chain::Transaction tx = MakeTx(&rng);
  Bytes wire = tx.Serialize();
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = wire;
    size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    auto parsed = chain::Transaction::Deserialize(corrupted);
    if (parsed.ok()) {
      // Structure survived; the signature must not (the flipped byte is
      // covered either by the signing bytes or the signature itself).
      EXPECT_FALSE(parsed->VerifySignature(scheme))
          << "byte " << pos << " flip silently verified";
    }
  }
}

TEST_P(FuzzTest, TruncatedBlocksAlwaysRejected) {
  Xoshiro256 rng(GetParam() + 2000);
  chain::Block block;
  block.header.height = 5;
  for (int i = 0; i < 3; ++i) block.txs.push_back(MakeTx(&rng));
  block.header.merkle_root = block.ComputeMerkleRoot();
  Bytes wire = block.Serialize();
  for (size_t cut = 0; cut < wire.size(); cut += 17) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(chain::Block::Deserialize(truncated).ok())
        << "accepted a block truncated to " << cut << " bytes";
  }
}

TEST_P(FuzzTest, TruncatedTransactionsAlwaysRejectedAndFullRoundTrips) {
  Xoshiro256 rng(GetParam() + 3000);
  chain::Transaction tx = MakeTx(&rng);
  Bytes wire = tx.Serialize();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(chain::Transaction::Deserialize(truncated).ok())
        << "accepted a transaction truncated to " << cut << " bytes";
  }
  auto full = chain::Transaction::Deserialize(wire);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->Hash(), tx.Hash());
}

TEST_P(FuzzTest, OversizedTransactionLengthPrefixesAreRejected) {
  Xoshiro256 rng(GetParam() + 4000);
  chain::Transaction tx = MakeTx(&rng);
  Bytes wire = tx.Serialize();
  // Offsets of every u32 length prefix in the wire format: contract,
  // method, payload, sender, then (past the u64 nonce) the signature.
  std::vector<size_t> prefixes;
  size_t off = 0;
  prefixes.push_back(off);
  off += 4 + tx.contract().size();
  prefixes.push_back(off);
  off += 4 + tx.method().size();
  prefixes.push_back(off);
  off += 4 + tx.payload().size();
  prefixes.push_back(off);
  off += 4 + tx.sender().ToBytes().size();
  off += 8;  // nonce
  prefixes.push_back(off);
  ASSERT_LT(off + 4, wire.size());
  // A length claiming more bytes than the buffer holds must fail fast in
  // CheckAvailable — never drive a giant allocation or read past the end.
  for (size_t pos : prefixes) {
    for (uint32_t huge :
         {0xffffffffu, 0x7fffffffu, static_cast<uint32_t>(wire.size())}) {
      Bytes corrupted = wire;
      for (size_t i = 0; i < 4; ++i) {
        corrupted[pos + i] = static_cast<uint8_t>(huge >> (8 * i));
      }
      EXPECT_FALSE(chain::Transaction::Deserialize(corrupted).ok())
          << "accepted length " << huge << " at offset " << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 99, 31337));

TEST(MatrixDeserializeFuzz, OverflowingShapeHeaderIsRejected) {
  // rows * cols * 8 wraps around uint64 for these headers; the guard
  // must compare element count against remaining/8, not count*8 against
  // remaining, or the corrupt shape slips through and drives a
  // multi-exabyte allocation.
  const std::array<std::pair<uint32_t, uint32_t>, 4> shapes = {{
      {0x80000000u, 0x80000000u},   // count = 2^62, count*8 wraps to 0.
      {0xffffffffu, 0xffffffffu},   // count near 2^64.
      {0x20000000u, 0x00000100u},   // count = 2^37: no wrap, but huge.
      {0xffffffffu, 0x00000008u},   // count*8 = 2^35 + ...: huge.
  }};
  for (const auto& [rows, cols] : shapes) {
    ByteWriter writer;
    writer.WriteU32(rows);
    writer.WriteU32(cols);
    for (int i = 0; i < 16; ++i) writer.WriteDouble(1.0);  // Tiny payload.
    ByteReader reader(writer.buffer());
    auto parsed = ml::Matrix::Deserialize(&reader);
    EXPECT_FALSE(parsed.ok())
        << "accepted rows=" << rows << " cols=" << cols;
  }
}

}  // namespace
}  // namespace bcfl
