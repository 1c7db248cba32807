#include "chain/block_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "chain/blockchain.h"
#include "common/rng.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace bcfl::chain {
namespace {

class BlockLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bcfl_block_log_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string LogPath() const { return (dir_ / "blocks.log").string(); }

  /// Builds `count` signed blocks extending genesis (heights 1..count).
  std::vector<Block> MakeBlocks(size_t count) {
    Blockchain chain;
    crypto::Schnorr scheme;
    Xoshiro256 rng(11);
    auto key = scheme.GenerateKeyPair(&rng);
    std::vector<Block> blocks;
    for (size_t b = 0; b < count; ++b) {
      Block block;
      block.header.height = chain.Height() + 1;
      block.header.prev_hash = chain.Tip().header.Hash();
      block.header.timestamp_us = (b + 1) * 1000;
      block.txs.push_back(Transaction::Sign(
          {.contract = "c", .method = "m", .nonce = b}, scheme, key, &rng));
      block.header.merkle_root = block.ComputeMerkleRoot();
      EXPECT_TRUE(chain.Append(block).ok());
      blocks.push_back(std::move(block));
    }
    return blocks;
  }

  std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFileBytes(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<long>(data.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(BlockLogTest, AppendReopenRoundTrip) {
  std::vector<Block> blocks = MakeBlocks(4);
  {
    auto log = BlockLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log->tip_height(), 0u);
    for (const Block& block : blocks) ASSERT_TRUE(log->Append(block).ok());
    EXPECT_EQ(log->tip_height(), 4u);
  }
  auto reopened = BlockLog::Open(LogPath());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->tip_height(), 4u);
  EXPECT_FALSE(reopened->open_stats().tail_truncated);
  std::vector<Block> recovered = reopened->TakeRecoveredBlocks();
  ASSERT_EQ(recovered.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recovered[i].Serialize(), blocks[i].Serialize()) << i;
  }
  // Appending continues past the recovered tail.
  Blockchain chain;
  for (const Block& block : blocks) ASSERT_TRUE(chain.Append(block).ok());
  Block next;
  next.header.height = 5;
  next.header.prev_hash = chain.Tip().header.Hash();
  next.header.timestamp_us = 5000;
  next.header.merkle_root = next.ComputeMerkleRoot();
  EXPECT_TRUE(reopened->Append(next).ok());
  EXPECT_EQ(reopened->tip_height(), 5u);
}

// Conformance vector for the block-log file: the header and one record
// holding MakeBlocks(1)'s block give exactly these bytes. A change to the
// framing or the block encoding fails here as an explicit vector diff.
TEST_F(BlockLogTest, OneBlockFileVector) {
  {
    auto log = BlockLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeBlocks(1)[0]).ok());
  }
  const std::string file = ReadFileBytes(LogPath());
  EXPECT_EQ(file.size(), 270u);
  EXPECT_EQ(crypto::DigestToHex(
                crypto::Sha256::Hash(Bytes(file.begin(), file.end()))),
            "aaf68760f89075d48174f230e510c8f9fec0be97fbd9bc119abccaa27537d8a3");
}

TEST_F(BlockLogTest, RejectsOutOfOrderAppend) {
  std::vector<Block> blocks = MakeBlocks(3);
  auto log = BlockLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->Append(blocks[0]).ok());
  // Skipping a height and re-appending the same height must both fail.
  EXPECT_FALSE(log->Append(blocks[2]).ok());
  EXPECT_FALSE(log->Append(blocks[0]).ok());
  EXPECT_EQ(log->tip_height(), 1u);
}

TEST_F(BlockLogTest, TruncateToHeightDropsTail) {
  std::vector<Block> blocks = MakeBlocks(5);
  auto log = BlockLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  for (const Block& block : blocks) ASSERT_TRUE(log->Append(block).ok());
  ASSERT_TRUE(log->TruncateToHeight(2).ok());
  EXPECT_EQ(log->tip_height(), 2u);
  // Height 3 can be re-appended (a resumed run regenerates it).
  EXPECT_TRUE(log->Append(blocks[2]).ok());
  log->Close();

  auto reopened = BlockLog::Open(LogPath());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->tip_height(), 3u);
}

TEST_F(BlockLogTest, TruncateAboveTipIsRejected) {
  std::vector<Block> blocks = MakeBlocks(2);
  auto log = BlockLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  for (const Block& block : blocks) ASSERT_TRUE(log->Append(block).ok());
  EXPECT_FALSE(log->TruncateToHeight(3).ok());
  EXPECT_EQ(log->tip_height(), 2u);
}

TEST_F(BlockLogTest, EmptyFileGetsHeaderOnOpen) {
  { std::ofstream touch(LogPath()); }
  auto log = BlockLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->tip_height(), 0u);
}

TEST_F(BlockLogTest, BadMagicFailsClosed) {
  WriteFileBytes(LogPath(), "NOPE\x01\x00\x00\x00");
  EXPECT_TRUE(BlockLog::Open(LogPath()).status().IsCorruption());
}

TEST_F(BlockLogTest, UnsupportedVersionIsRejected) {
  {
    auto log = BlockLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    for (const Block& block : MakeBlocks(2)) {
      ASSERT_TRUE(log->Append(block).ok());
    }
  }
  // A log written by an older format (version 1 committed to a different
  // state root) fails closed at open, and is left exactly as it was.
  std::string bytes = ReadFileBytes(LogPath());
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = 1;  // Version field follows the 4-byte magic (u32 LE).
  bytes[5] = bytes[6] = bytes[7] = 0;
  WriteFileBytes(LogPath(), bytes);
  Status st = BlockLog::Open(LogPath()).status();
  EXPECT_TRUE(st.IsUnimplemented()) << st.ToString();
  EXPECT_NE(st.ToString().find("unsupported block log version 1"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(ReadFileBytes(LogPath()), bytes);
}

// Crash-consistency fuzz: truncate the file at EVERY byte boundary inside
// the last record. Each prefix must recover to exactly the settled blocks
// (the torn tail dropped), never to a half-loaded record.
TEST_F(BlockLogTest, TornTailFuzzEveryTruncationPoint) {
  std::vector<Block> blocks = MakeBlocks(3);
  std::string full;
  std::string after_two;
  {
    auto log = BlockLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(blocks[0]).ok());
    ASSERT_TRUE(log->Append(blocks[1]).ok());
    log->Close();
    after_two = ReadFileBytes(LogPath());
    auto again = BlockLog::Open(LogPath());
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(again->Append(blocks[2]).ok());
    again->Close();
    full = ReadFileBytes(LogPath());
  }
  ASSERT_GT(full.size(), after_two.size());

  for (size_t cut = after_two.size(); cut < full.size(); ++cut) {
    const std::string torn_path = (dir_ / "torn.log").string();
    WriteFileBytes(torn_path, full.substr(0, cut));
    auto log = BlockLog::Open(torn_path);
    ASSERT_TRUE(log.ok()) << "cut at byte " << cut << ": "
                          << log.status().ToString();
    EXPECT_EQ(log->tip_height(), 2u) << "cut at byte " << cut;
    // The very first cut lands exactly on the record-2 boundary: a clean
    // file, nothing torn. Every later cut leaves a partial tail.
    EXPECT_EQ(log->open_stats().tail_truncated, cut > after_two.size())
        << "cut at byte " << cut;
    std::vector<Block> recovered = log->TakeRecoveredBlocks();
    ASSERT_EQ(recovered.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(recovered[0].Serialize(), blocks[0].Serialize());
    EXPECT_EQ(recovered[1].Serialize(), blocks[1].Serialize());
    // The torn log stays writable: the dropped block re-appends.
    log->Close();
    auto reopened = BlockLog::Open(torn_path);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened->Append(blocks[2]).ok()) << "cut at byte " << cut;
  }
}

// Bit-flip fuzz over settled records: corruption BEFORE the tail is not a
// torn write and must fail closed — recovering around it would silently
// drop acknowledged commits.
TEST_F(BlockLogTest, BitFlipInSettledRecordFailsClosed) {
  std::vector<Block> blocks = MakeBlocks(3);
  std::string after_two;
  std::string full;
  {
    auto log = BlockLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(blocks[0]).ok());
    ASSERT_TRUE(log->Append(blocks[1]).ok());
    log->Close();
    after_two = ReadFileBytes(LogPath());
    auto again = BlockLog::Open(LogPath());
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(again->Append(blocks[2]).ok());
    again->Close();
    full = ReadFileBytes(LogPath());
  }
  // Flip one bit in every 7th byte of the settled region (header + first
  // two records) — sampling keeps the fuzz fast while touching the length
  // field, the CRC field and the payload of both records.
  const std::string flip_path = (dir_ / "flip.log").string();
  for (size_t pos = 0; pos < after_two.size(); pos += 7) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    WriteFileBytes(flip_path, mutated);
    auto log = BlockLog::Open(flip_path);
    // Either the open fails closed (Corruption) or — when the flip lands
    // in the final record's bytes shared with the settled prefix length —
    // never a silently different block.
    if (log.ok()) {
      std::vector<Block> recovered = log->TakeRecoveredBlocks();
      for (size_t i = 0; i < recovered.size(); ++i) {
        EXPECT_EQ(recovered[i].Serialize(), blocks[i].Serialize())
            << "flip at byte " << pos;
      }
      // A flip that still opens may only have truncated the tail, never
      // kept all three records with mutated bytes.
      EXPECT_LT(log->tip_height(), 3u) << "flip at byte " << pos;
    } else {
      // Header flips surface as Corruption (magic) or Unimplemented
      // (version); record flips as Corruption. All fail closed.
      EXPECT_TRUE(log.status().IsCorruption() ||
                  log.status().IsUnimplemented())
          << "flip at byte " << pos << ": " << log.status().ToString();
    }
  }
  // A flip in the LAST record's payload is indistinguishable from a torn
  // write and must recover to the settled prefix.
  std::string mutated = full;
  mutated[full.size() - 3] = static_cast<char>(mutated[full.size() - 3] ^ 0x40);
  WriteFileBytes(flip_path, mutated);
  auto log = BlockLog::Open(flip_path);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->tip_height(), 2u);
  EXPECT_TRUE(log->open_stats().tail_truncated);
}

}  // namespace
}  // namespace bcfl::chain
