#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>

namespace bcfl::crypto {
namespace {

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

TEST(Sha256Test, DigestToBytesPreservesContent) {
  Digest d = Sha256::Hash("abc");
  Bytes b = DigestToBytes(d);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

}  // namespace
}  // namespace bcfl::crypto
