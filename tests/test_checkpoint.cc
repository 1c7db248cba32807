#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "crypto/sha256.h"

namespace bcfl::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bcfl_checkpoint_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A checkpoint exercising every field, including an active drop
  /// stream and a cached gaussian.
  SessionCheckpoint Sample() {
    SessionCheckpoint cp;
    cp.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
    cp.next_round = 3;
    cp.session_rng.s = {1, 2, 3, 4};
    cp.session_rng.has_cached_gaussian = true;
    cp.session_rng.cached_gaussian = -0.75;
    cp.network.rng.s = {5, 6, 7, 8};
    cp.network.next_seq = 42;
    cp.network.clock_us = 9'000'000;
    cp.network.drop_streams.emplace_back(1, 2, 0x1234abcdull);
    cp.tip_height = 4;
    cp.tip_hash.fill(0xAB);
    cp.miner_heights = {{0, 4}, {1, 4}, {2, 3}};
    cp.round_accuracies = {0.4, 0.6, 0.85};
    cp.submission_retries = 2;
    return cp;
  }

  void ExpectEqual(const SessionCheckpoint& a, const SessionCheckpoint& b) {
    EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
    EXPECT_EQ(a.next_round, b.next_round);
    EXPECT_EQ(a.session_rng.s, b.session_rng.s);
    EXPECT_EQ(a.session_rng.has_cached_gaussian,
              b.session_rng.has_cached_gaussian);
    EXPECT_EQ(a.session_rng.cached_gaussian, b.session_rng.cached_gaussian);
    EXPECT_EQ(a.network.rng.s, b.network.rng.s);
    EXPECT_EQ(a.network.next_seq, b.network.next_seq);
    EXPECT_EQ(a.network.clock_us, b.network.clock_us);
    EXPECT_EQ(a.network.drop_streams, b.network.drop_streams);
    EXPECT_EQ(a.tip_height, b.tip_height);
    EXPECT_EQ(a.tip_hash, b.tip_hash);
    EXPECT_EQ(a.miner_heights, b.miner_heights);
    EXPECT_EQ(a.round_accuracies, b.round_accuracies);
    EXPECT_EQ(a.submission_retries, b.submission_retries);
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SerializeRoundTrip) {
  SessionCheckpoint cp = Sample();
  auto decoded = SessionCheckpoint::Deserialize(cp.Serialize());
  ASSERT_TRUE(decoded.ok());
  ExpectEqual(cp, *decoded);
}

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  SessionCheckpoint cp = Sample();
  ASSERT_TRUE(SaveCheckpoint(cp, Path("cp.bckp")).ok());
  auto loaded = LoadCheckpoint(Path("cp.bckp"));
  ASSERT_TRUE(loaded.ok());
  ExpectEqual(cp, *loaded);
  // No stray temp file remains after the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(Path("cp.bckp.tmp")));
}

TEST_F(CheckpointTest, OverwriteReplacesAtomically) {
  SessionCheckpoint first = Sample();
  SessionCheckpoint second = Sample();
  second.next_round = 7;
  second.round_accuracies.push_back(0.9);
  ASSERT_TRUE(SaveCheckpoint(first, Path("cp.bckp")).ok());
  ASSERT_TRUE(SaveCheckpoint(second, Path("cp.bckp")).ok());
  auto loaded = LoadCheckpoint(Path("cp.bckp"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->next_round, 7u);
}

// Conformance vector for the checkpoint file: Sample() saved to disk
// gives exactly these bytes. A change to the framing or the payload
// layout fails here as an explicit vector diff.
TEST_F(CheckpointTest, FileBytesVector) {
  ASSERT_TRUE(SaveCheckpoint(Sample(), Path("cp.bckp")).ok());
  std::ifstream in(Path("cp.bckp"), std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file.size(), 266u);
  EXPECT_EQ(crypto::DigestToHex(
                crypto::Sha256::Hash(Bytes(file.begin(), file.end()))),
            "daf42002bcae3233abcfd475d2079e48ba3ec94ddb6167bc6dba946b45ecb61b");
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  EXPECT_TRUE(LoadCheckpoint(Path("nope.bckp")).status().IsNotFound());
}

TEST_F(CheckpointTest, EmptyFileIsCorruption) {
  { std::ofstream touch(Path("empty.bckp")); }
  EXPECT_TRUE(LoadCheckpoint(Path("empty.bckp")).status().IsCorruption());
}

TEST_F(CheckpointTest, BadMagicIsCorruption) {
  std::ofstream(Path("bad.bckp")) << "XXXXgarbage that is long enough";
  EXPECT_TRUE(LoadCheckpoint(Path("bad.bckp")).status().IsCorruption());
}

TEST_F(CheckpointTest, UnsupportedVersionIsRejected) {
  ASSERT_TRUE(SaveCheckpoint(Sample(), Path("cp.bckp")).ok());
  std::fstream file(Path("cp.bckp"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(4);  // Version field follows the 4-byte magic.
  uint32_t bad_version = 99;
  file.write(reinterpret_cast<const char*>(&bad_version), 4);
  file.close();
  EXPECT_TRUE(LoadCheckpoint(Path("cp.bckp")).status().IsUnimplemented());
}

// Torn-write fuzz: every truncation point of the file must fail closed —
// a checkpoint half-written by a crash is never half-loaded. (SaveCheckpoint
// writes via tmp+rename so this file state "cannot happen"; the loader
// still refuses it.)
TEST_F(CheckpointTest, TruncationAtEveryByteFailsClosed) {
  ASSERT_TRUE(SaveCheckpoint(Sample(), Path("cp.bckp")).ok());
  std::ifstream in(Path("cp.bckp"), std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(full.size(), 16u);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::ofstream out(Path("torn.bckp"), std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<long>(cut));
    out.close();
    auto loaded = LoadCheckpoint(Path("torn.bckp"));
    EXPECT_FALSE(loaded.ok()) << "cut at byte " << cut;
  }
}

// Bit-flip fuzz: a flip anywhere in the file — header, length, CRC or
// payload — must fail the load closed, never yield a different checkpoint.
TEST_F(CheckpointTest, BitFlipAnywhereFailsClosed) {
  ASSERT_TRUE(SaveCheckpoint(Sample(), Path("cp.bckp")).ok());
  std::ifstream in(Path("cp.bckp"), std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x08);
    std::ofstream out(Path("flip.bckp"), std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<long>(mutated.size()));
    out.close();
    auto loaded = LoadCheckpoint(Path("flip.bckp"));
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << pos;
  }
}

}  // namespace
}  // namespace bcfl::core
