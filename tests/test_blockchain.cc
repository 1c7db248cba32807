#include "chain/blockchain.h"

#include <gtest/gtest.h>

namespace bcfl::chain {
namespace {

Block NextBlock(const Blockchain& chain, uint32_t proposer = 0) {
  Block block;
  block.header.height = chain.Height() + 1;
  block.header.prev_hash = chain.Tip().header.Hash();
  block.header.timestamp_us = chain.Tip().header.timestamp_us + 1000;
  block.header.proposer = proposer;
  block.header.merkle_root = block.ComputeMerkleRoot();
  return block;
}

TEST(BlockchainTest, StartsAtGenesis) {
  Blockchain chain;
  EXPECT_EQ(chain.Height(), 0u);
  EXPECT_EQ(chain.NumBlocks(), 1u);
  EXPECT_EQ(chain.Tip().header.Hash(), MakeGenesisBlock().header.Hash());
}

TEST(BlockchainTest, AppendsValidBlocks) {
  Blockchain chain;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(chain.Append(NextBlock(chain)).ok());
    EXPECT_EQ(chain.Height(), static_cast<uint64_t>(i));
  }
  auto block3 = chain.GetBlock(3);
  ASSERT_TRUE(block3.ok());
  EXPECT_EQ(block3->header.height, 3u);
}

TEST(BlockchainTest, GetBlockOutOfRange) {
  Blockchain chain;
  EXPECT_TRUE(chain.GetBlock(1).status().IsOutOfRange());
}

TEST(BlockchainTest, RejectsWrongHeight) {
  Blockchain chain;
  Block block = NextBlock(chain);
  block.header.height = 5;
  EXPECT_TRUE(chain.Append(block).IsInvalidArgument());
  EXPECT_EQ(chain.Height(), 0u);
}

TEST(BlockchainTest, RejectsWrongParentHash) {
  Blockchain chain;
  Block block = NextBlock(chain);
  block.header.prev_hash[0] ^= 1;
  EXPECT_TRUE(chain.Append(block).IsInvalidArgument());
}

TEST(BlockchainTest, RejectsMerkleMismatch) {
  Blockchain chain;
  Block block = NextBlock(chain);
  block.header.merkle_root[0] ^= 1;
  EXPECT_TRUE(chain.Append(block).IsCorruption());
}

TEST(BlockchainTest, RejectsBackwardsTimestamp) {
  Blockchain chain;
  ASSERT_TRUE(chain.Append(NextBlock(chain)).ok());
  Block block = NextBlock(chain);
  block.header.timestamp_us = 0;
  EXPECT_TRUE(chain.Append(block).IsInvalidArgument());
}

TEST(BlockchainTest, FindTransactionLocatesByHash) {
  Blockchain chain;
  crypto::Schnorr scheme;
  Xoshiro256 rng(1);
  auto key = scheme.GenerateKeyPair(&rng);

  Block block = NextBlock(chain);
  Transaction tx = Transaction::Sign(
      {.contract = "c", .method = "m", .nonce = 7}, scheme, key, &rng);
  block.txs.push_back(tx);
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(chain.Append(block).ok());

  auto location = chain.FindTransaction(tx.Hash());
  ASSERT_TRUE(location.ok());
  EXPECT_EQ(location->first, 1u);
  EXPECT_EQ(location->second, 0u);

  crypto::Digest unknown{};
  EXPECT_TRUE(chain.FindTransaction(unknown).status().IsNotFound());
  EXPECT_EQ(chain.TotalTransactions(), 1u);
}

}  // namespace
}  // namespace bcfl::chain
