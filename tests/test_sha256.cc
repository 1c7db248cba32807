#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace bcfl::crypto {
namespace {

using BlocksFn = void (*)(uint32_t*, const uint8_t*, size_t);

constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Pads the whole message up front (FIPS 180-4 §5.1.1) and runs one
// compressor over it: no incremental buffering, so it checks Sha256's
// Update/Finish bookkeeping from the outside.
Digest HashWith(BlocksFn blocks, const uint8_t* data, size_t size) {
  const size_t padded = (size + 9 + 63) / 64 * 64;
  std::vector<uint8_t> message(padded, 0);
  if (size > 0) std::memcpy(message.data(), data, size);
  message[size] = 0x80;
  const uint64_t bit_len = static_cast<uint64_t>(size) * 8;
  for (int i = 0; i < 8; ++i) {
    message[padded - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  std::array<uint32_t, 8> state = kInitialState;
  blocks(state.data(), message.data(), padded / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

Digest HashWith(BlocksFn blocks, std::string_view msg) {
  return HashWith(blocks, reinterpret_cast<const uint8_t*>(msg.data()),
                  msg.size());
}

std::vector<uint8_t> RandomBytes(Xoshiro256* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

bool HasShaNi() { return std::string(Sha256Path()) == "sha_ni"; }

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(DigestToHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Digest one_shot = Sha256::Hash(msg);
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 hasher;
    hasher.Update(msg.substr(0, split));
    hasher.Update(msg.substr(split));
    EXPECT_EQ(hasher.Finish(), one_shot) << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // Lengths around the 64-byte block and the 56-byte padding boundary are
  // the classic off-by-one bug sites.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Digest incremental = [&] {
      Sha256 hasher;
      for (char c : msg) hasher.Update(std::string(1, c));
      return hasher.Finish();
    }();
    EXPECT_EQ(incremental, Sha256::Hash(msg)) << "length " << len;
  }
}

TEST(Sha256Test, ResetRestoresInitialState) {
  Sha256 hasher;
  hasher.Update("garbage");
  hasher.Reset();
  hasher.Update("abc");
  EXPECT_EQ(DigestToHex(hasher.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::Hash("a"), Sha256::Hash("b"));
  EXPECT_NE(Sha256::Hash("abc"), Sha256::Hash("abd"));
  // Length-extension-shaped inputs differ too.
  EXPECT_NE(Sha256::Hash("ab"), Sha256::Hash("abc"));
}

TEST(Sha256Test, PathIsOneOfTheTwoCompressors) {
  const std::string path = Sha256Path();
  EXPECT_TRUE(path == "sha_ni" || path == "scalar") << path;
}

struct Compressor {
  const char* name;
  BlocksFn blocks;
};

void PrintTo(const Compressor& compressor, std::ostream* os) {
  *os << compressor.name;
}

class Sha256BlocksTest : public ::testing::TestWithParam<Compressor> {
 protected:
  void SetUp() override {
    if (GetParam().blocks == Sha256BlocksShaNi && !HasShaNi()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions";
    }
  }
};

TEST_P(Sha256BlocksTest, NistVectors) {
  const BlocksFn blocks = GetParam().blocks;
  EXPECT_EQ(DigestToHex(HashWith(blocks, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(HashWith(blocks, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(HashWith(
                blocks,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestToHex(HashWith(blocks, std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(
    Compressors, Sha256BlocksTest,
    ::testing::Values(Compressor{"scalar", Sha256BlocksScalar},
                      Compressor{"sha_ni", Sha256BlocksShaNi}),
    [](const ::testing::TestParamInfo<Compressor>& info) {
      return std::string(info.param.name);
    });

TEST(Sha256BlocksCrossCheck, ShaNiMatchesScalarOnRandomStates) {
  if (!HasShaNi()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Xoshiro256 rng(20);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = 1 + rng.NextBounded(4);
    // A random offset leaves most SHA-NI loads unaligned.
    const size_t offset = rng.NextBounded(16);
    const std::vector<uint8_t> buffer = RandomBytes(&rng, offset + 64 * n);
    std::array<uint32_t, 8> scalar{};
    for (auto& word : scalar) word = static_cast<uint32_t>(rng.Next());
    std::array<uint32_t, 8> sha_ni = scalar;
    Sha256BlocksScalar(scalar.data(), buffer.data() + offset, n);
    Sha256BlocksShaNi(sha_ni.data(), buffer.data() + offset, n);
    ASSERT_EQ(scalar, sha_ni) << "trial " << trial << ", " << n << " blocks";
  }
}

// Feeds `message` through the public API in random pieces, with
// zero-length updates (a null pointer among them) in between.
Digest HashInRandomPieces(Xoshiro256* rng, const std::vector<uint8_t>& message) {
  Sha256 hasher;
  size_t at = 0;
  while (at < message.size()) {
    switch (rng->NextBounded(4)) {
      case 0:
        hasher.Update(nullptr, 0);
        break;
      case 1:
        hasher.Update(message.data() + at, 0);
        break;
      default: {
        // Pieces of up to 70 bytes, or up to 300 to span whole blocks.
        const size_t cap = rng->NextBounded(2) == 0 ? 70 : 300;
        const size_t piece =
            std::min(message.size() - at, 1 + rng->NextBounded(cap));
        hasher.Update(message.data() + at, piece);
        at += piece;
      }
    }
  }
  hasher.Update(nullptr, 0);
  return hasher.Finish();
}

TEST(Sha256Test, MatchesScalarReferenceOnEveryShortLength) {
  Xoshiro256 rng(21);
  const std::vector<uint8_t> data = RandomBytes(&rng, 4160);
  for (size_t len = 0; len <= data.size(); ++len) {
    const std::vector<uint8_t> message(data.begin(), data.begin() + len);
    const Digest want = HashWith(Sha256BlocksScalar, message.data(), len);
    ASSERT_EQ(Sha256::Hash(message.data(), len), want) << "length " << len;
    ASSERT_EQ(HashInRandomPieces(&rng, message), want) << "length " << len;
  }
}

TEST(Sha256Test, MatchesScalarReferenceOnRandomLongLengths) {
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.NextBounded(65537);
    const std::vector<uint8_t> message = RandomBytes(&rng, len);
    const Digest want = HashWith(Sha256BlocksScalar, message.data(), len);
    ASSERT_EQ(Sha256::Hash(message.data(), len), want) << "length " << len;
    ASSERT_EQ(HashInRandomPieces(&rng, message), want) << "length " << len;
  }
}

TEST(Sha256Test, DigestToBytesPreservesContent) {
  Digest d = Sha256::Hash("abc");
  Bytes b = DigestToBytes(d);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

}  // namespace
}  // namespace bcfl::crypto
