#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/mempool.h"
#include "chain/transaction.h"

namespace bcfl::chain {
namespace {

class TxFixture : public ::testing::Test {
 protected:
  crypto::Schnorr scheme_;
  Xoshiro256 rng_{1};
  crypto::SchnorrKeyPair key_ = scheme_.GenerateKeyPair(&rng_);

  Transaction MakeTx(const std::string& method = "submit_update",
                     uint64_t nonce = 1) {
    return Transaction::Sign({.contract = "bcfl",
                              .method = method,
                              .payload = {1, 2, 3, 4},
                              .nonce = nonce},
                             scheme_, key_, &rng_);
  }
};

/// `tx` with an edited body under its original sender and signature.
template <typename Edit>
Transaction Tampered(const Transaction& tx, Edit edit) {
  TxBody body = tx.body();
  edit(&body);
  return Transaction(std::move(body), tx.sender(), tx.signature());
}

TEST_F(TxFixture, SignSetsSenderAndVerifies) {
  Transaction tx = MakeTx();
  EXPECT_EQ(tx.sender(), key_.public_key);
  EXPECT_TRUE(tx.VerifySignature(scheme_));
}

TEST_F(TxFixture, TamperedFieldsBreakSignature) {
  Transaction tx = MakeTx();
  const Transaction tampered[] = {
      Tampered(tx, [](TxBody* b) { b->method = "setup"; }),
      Tampered(tx, [](TxBody* b) { b->payload.push_back(0); }),
      Tampered(tx, [](TxBody* b) { b->nonce++; }),
      Tampered(tx, [](TxBody* b) { b->contract = "other"; }),
  };
  for (const Transaction& t : tampered) {
    EXPECT_FALSE(t.VerifySignature(scheme_));
    EXPECT_NE(t.Hash(), tx.Hash());
  }
  // A payload byte flipped on the wire (past the length-prefixed contract
  // and method and the payload's own prefix) decodes to a tx that fails.
  Bytes wire = tx.Serialize();
  wire[4 + tx.contract().size() + 4 + tx.method().size() + 4] ^= 0x01;
  auto decoded = Transaction::Deserialize(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->VerifySignature(scheme_));
  EXPECT_NE(decoded->Hash(), tx.Hash());
}

TEST_F(TxFixture, SerializeRoundTrip) {
  Transaction tx = MakeTx();
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->contract(), tx.contract());
  EXPECT_EQ(back->method(), tx.method());
  EXPECT_EQ(back->payload(), tx.payload());
  EXPECT_EQ(back->sender(), tx.sender());
  EXPECT_EQ(back->nonce(), tx.nonce());
  EXPECT_EQ(back->Hash(), tx.Hash());
  EXPECT_TRUE(back->VerifySignature(scheme_));
}

TEST_F(TxFixture, CopiesShareOneBody) {
  // Copies through a mempool and a block share the signed body; a decode
  // builds its own.
  Transaction tx = MakeTx();
  Mempool pool;
  ASSERT_TRUE(pool.Add(tx).ok());
  Block block;
  block.txs = pool.Peek();
  ASSERT_EQ(block.txs.size(), 1u);
  const Transaction copy = block.txs[0];
  EXPECT_EQ(&copy.body(), &tx.body());
  EXPECT_EQ(copy.payload().data(), tx.payload().data());
  auto decoded = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_NE(&decoded->body(), &tx.body());
  EXPECT_EQ(decoded->payload(), tx.payload());
}

TEST_F(TxFixture, DeserializeRejectsTrailingBytes) {
  Bytes wire = MakeTx().Serialize();
  wire.push_back(0);
  EXPECT_TRUE(Transaction::Deserialize(wire).status().IsCorruption());
}

TEST_F(TxFixture, DeserializeRejectsTruncation) {
  Bytes wire = MakeTx().Serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(Transaction::Deserialize(wire).ok());
}

TEST_F(TxFixture, HashDistinguishesTransactions) {
  EXPECT_NE(MakeTx("a", 1).Hash(), MakeTx("b", 1).Hash());
  EXPECT_NE(MakeTx("a", 1).Hash(), MakeTx("a", 2).Hash());
}

TEST_F(TxFixture, BlockMerkleRootCommitsToBody) {
  Block block;
  block.txs = {MakeTx("m", 1), MakeTx("m", 2)};
  block.header.merkle_root = block.ComputeMerkleRoot();
  EXPECT_TRUE(block.MerkleRootMatchesBody());
  block.txs[0] = Tampered(block.txs[0], [](TxBody* b) { b->nonce = 999; });
  EXPECT_FALSE(block.MerkleRootMatchesBody());
}

TEST_F(TxFixture, BlockSerializeRoundTrip) {
  Block block;
  block.header.height = 3;
  block.header.prev_hash.fill(0xaa);
  block.header.state_root.fill(0xbb);
  block.header.timestamp_us = 123456;
  block.header.proposer = 2;
  block.txs = {MakeTx("m", 1), MakeTx("m", 2), MakeTx("m", 3)};
  block.header.merkle_root = block.ComputeMerkleRoot();

  auto back = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header.Hash(), block.header.Hash());
  ASSERT_EQ(back->txs.size(), 3u);
  EXPECT_EQ(back->txs[1].Hash(), block.txs[1].Hash());
  EXPECT_TRUE(back->MerkleRootMatchesBody());
}

TEST_F(TxFixture, BlockDeserializeRejectsGarbage) {
  EXPECT_FALSE(Block::Deserialize(Bytes{1, 2, 3}).ok());
  Bytes wire = Block().Serialize();
  wire.push_back(7);
  EXPECT_TRUE(Block::Deserialize(wire).status().IsCorruption());
}

TEST_F(TxFixture, MempoolRejectsReSignedSenderNonceReplay) {
  Mempool pool;
  Transaction tx = MakeTx("submit_update", 7);
  ASSERT_TRUE(pool.Add(tx).ok());
  // Re-sign the same logical transaction: the fresh Schnorr nonce gives
  // it a different hash, but it targets the same (sender, nonce) slot —
  // admission must reject it, not let it occupy a second block slot.
  Transaction replay = Transaction::Sign(tx.body(), scheme_, key_, &rng_);
  ASSERT_NE(replay.Hash(), tx.Hash());
  EXPECT_TRUE(pool.Add(replay).IsAlreadyExists());
  EXPECT_EQ(pool.size(), 1u);
  // A different nonce from the same sender is still admissible.
  EXPECT_TRUE(pool.Add(MakeTx("submit_update", 8)).ok());
  EXPECT_EQ(pool.size(), 2u);
}

TEST_F(TxFixture, MempoolRemoveCommittedKeepsArrivalOrder) {
  Mempool pool;
  std::vector<Transaction> txs;
  for (uint64_t n = 0; n < 5; ++n) {
    txs.push_back(MakeTx("submit_update", n));
    ASSERT_TRUE(pool.Add(txs.back()).ok());
  }
  pool.RemoveCommitted({txs[0], txs[1]});
  std::vector<Transaction> rest = pool.Peek(0);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(pool.size(), 3u);
  for (size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].Hash(), txs[i + 2].Hash()) << "slot " << i;
  }
}

TEST(BlockHeaderTest, HashCoversEveryField) {
  BlockHeader base;
  base.height = 1;
  auto hash = [](BlockHeader h) { return h.Hash(); };
  BlockHeader h1 = base;
  h1.height = 2;
  EXPECT_NE(hash(h1), hash(base));
  BlockHeader h2 = base;
  h2.prev_hash[0] = 1;
  EXPECT_NE(hash(h2), hash(base));
  BlockHeader h3 = base;
  h3.merkle_root[0] = 1;
  EXPECT_NE(hash(h3), hash(base));
  BlockHeader h4 = base;
  h4.state_root[0] = 1;
  EXPECT_NE(hash(h4), hash(base));
  BlockHeader h5 = base;
  h5.timestamp_us = 9;
  EXPECT_NE(hash(h5), hash(base));
  BlockHeader h6 = base;
  h6.proposer = 9;
  EXPECT_NE(hash(h6), hash(base));
}

// Conformance vectors for the tx and block wire formats: fixed inputs in,
// pinned digests out. A change to what a tx or block encodes, signs or
// hashes fails here as an explicit vector diff.
constexpr uint64_t kVectorKeySeed = 0x5eed7c;

Transaction VectorTx(const crypto::Schnorr& scheme,
                     const crypto::SchnorrKeyPair& key, uint64_t nonce,
                     size_t payload_bytes, Xoshiro256* rng) {
  TxBody body{.contract = "bcfl", .method = "submit_update", .nonce = nonce};
  body.payload.resize(payload_bytes);
  for (size_t i = 0; i < payload_bytes; ++i) {
    body.payload[i] = static_cast<uint8_t>(i * 31 + nonce);
  }
  return Transaction::Sign(std::move(body), scheme, key, rng);
}

TEST(FormatVectorTest, TransactionWireBytesAndId) {
  crypto::Schnorr scheme;
  Xoshiro256 rng(kVectorKeySeed);
  crypto::SchnorrKeyPair key = scheme.GenerateKeyPair(&rng);
  Transaction tx = VectorTx(scheme, key, 42, 5200, &rng);
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256::Hash(tx.Serialize())),
            "84c137605c060605411590992584173f94c817777c61cecbd6c7f76be3ba5e9f");
  EXPECT_EQ(crypto::DigestToHex(tx.Hash()),
            "65cbefbc6afbfba11496db3af71a70466bccfe200fc7057b1df258ad2bcb35ad");
}

TEST(FormatVectorTest, BlockMerkleRootAndId) {
  crypto::Schnorr scheme;
  Xoshiro256 rng(kVectorKeySeed);
  crypto::SchnorrKeyPair key = scheme.GenerateKeyPair(&rng);
  Block block;
  block.header.height = 7;
  block.header.prev_hash.fill(0x11);
  block.header.state_root.fill(0x22);
  block.header.timestamp_us = 1'700'000;
  block.header.proposer = 3;
  for (uint64_t nonce = 1; nonce <= 3; ++nonce) {
    block.txs.push_back(VectorTx(scheme, key, nonce, 100 * nonce, &rng));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();
  EXPECT_EQ(crypto::DigestToHex(block.header.merkle_root),
            "dec6c8d31f7d377c8739b4d4de0825ef13a4d6798d93e1b8e005f363736f5df9");
  EXPECT_EQ(crypto::DigestToHex(block.header.Hash()),
            "919786e32b4f9da211a630d779d25e4ce464db2bff4abef93c563ff736f9a657");
}

TEST(GenesisTest, IsDeterministic) {
  Block g1 = MakeGenesisBlock();
  Block g2 = MakeGenesisBlock();
  EXPECT_EQ(g1.header.Hash(), g2.header.Hash());
  EXPECT_EQ(g1.header.height, 0u);
  EXPECT_TRUE(g1.txs.empty());
  EXPECT_TRUE(g1.MerkleRootMatchesBody());
}

}  // namespace
}  // namespace bcfl::chain
