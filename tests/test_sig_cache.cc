#include "chain/sig_cache.h"

#include <gtest/gtest.h>

#include "chain/contract_host.h"
#include "chain/state.h"
#include "common/rng.h"

namespace bcfl::chain {
namespace {

/// Minimal contract: "put" stores the payload under the nonce.
class PutContract : public SmartContract {
 public:
  std::string name() const override { return "put"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    state->Put("put/" + std::to_string(tx.nonce()), tx.payload());
    return Status::OK();
  }
};

Transaction SignedTx(const crypto::Schnorr& scheme,
                     const crypto::SchnorrKeyPair& key, uint64_t nonce,
                     Xoshiro256* rng) {
  return Transaction::Sign({.contract = "put",
                            .method = "put",
                            .payload = Bytes(48, static_cast<uint8_t>(nonce)),
                            .nonce = nonce},
                           scheme, key, rng);
}

TEST(SigVerifyCacheTest, InsertContainsClear) {
  SigVerifyCache cache;
  crypto::Digest a{};
  a[0] = 1;
  crypto::Digest b{};
  b[0] = 2;
  EXPECT_FALSE(cache.Contains(a));
  cache.Insert(a);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_EQ(cache.Size(), 1u);
  cache.Insert(a);  // Idempotent.
  EXPECT_EQ(cache.Size(), 1u);
  cache.Clear();
  EXPECT_FALSE(cache.Contains(a));
  EXPECT_EQ(cache.Size(), 0u);
}

class SigCacheHostTest : public ::testing::Test {
 protected:
  SigCacheHostTest() {
    host_ = std::make_shared<ContractHost>();
    EXPECT_TRUE(host_->Register(std::make_shared<PutContract>()).ok());
  }

  std::shared_ptr<ContractHost> host_;
  Xoshiro256 rng_{2024};
};

TEST_F(SigCacheHostTest, SuccessfulVerifiesAreCachedAcrossReExecution) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 5; ++i) {
    txs.push_back(SignedTx(host_->scheme(), key, i, &rng_));
  }
  ContractState s1;
  auto r1 = host_->ExecuteBlock(txs, &s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(host_->sig_cache().Size(), txs.size());

  // Re-execution (a second miner validating the same block) must yield
  // identical receipts and state without growing the cache.
  ContractState s2;
  auto r2 = host_->ExecuteBlock(txs, &s2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].success, (*r2)[i].success);
    EXPECT_EQ((*r1)[i].tx_hash, (*r2)[i].tx_hash);
  }
  EXPECT_EQ(s1.StateRoot(), s2.StateRoot());
  EXPECT_EQ(host_->sig_cache().Size(), txs.size());
}

TEST_F(SigCacheHostTest, InvalidSignatureIsNeverCached) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  Transaction signed_tx = SignedTx(host_->scheme(), key, 7, &rng_);
  crypto::SchnorrSignature forged = signed_tx.signature();
  forged.s = forged.s.Add(crypto::UInt256(1));
  const Transaction tx(signed_tx.body(), signed_tx.sender(), forged);
  ContractState state;
  for (int round = 0; round < 2; ++round) {
    auto receipt = host_->ExecuteTransaction(tx, &state);
    ASSERT_TRUE(receipt.ok());
    EXPECT_FALSE(receipt->success);
    EXPECT_EQ(receipt->error, "invalid signature");
  }
  EXPECT_EQ(host_->sig_cache().Size(), 0u);
}

TEST_F(SigCacheHostTest, TamperedTransactionMissesTheCache) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  Transaction tx = SignedTx(host_->scheme(), key, 9, &rng_);
  ContractState state;
  auto good = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->success);
  EXPECT_EQ(host_->sig_cache().Size(), 1u);

  // Flipping a payload byte changes the tx hash, so the cached verdict
  // cannot be replayed onto the tampered bytes (fail-closed).
  TxBody edited = tx.body();
  edited.payload[0] ^= 0xff;
  const Transaction tampered(std::move(edited), tx.sender(), tx.signature());
  ASSERT_NE(tampered.Hash(), tx.Hash());
  auto bad = host_->ExecuteTransaction(tampered, &state);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->success);
  EXPECT_EQ(bad->error, "invalid signature");
  EXPECT_EQ(host_->sig_cache().Size(), 1u);
}

TEST_F(SigCacheHostTest, PreVerifyCachesValidSignaturesOnly) {
  auto key_a = host_->scheme().GenerateKeyPair(&rng_);
  auto key_b = host_->scheme().GenerateKeyPair(&rng_);
  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 12; ++i) {
    txs.push_back(
        SignedTx(host_->scheme(), i % 2 == 0 ? key_a : key_b, i, &rng_));
  }
  crypto::SchnorrSignature bad = txs[3].signature();  // One invalid tx.
  bad.r = crypto::UInt256(0);
  txs[3] = Transaction(txs[3].body(), txs[3].sender(), bad);

  // Each tx's signature is checked before its contract runs, and only
  // the valid verdicts are cached (fail-closed).
  ContractState state;
  auto receipts = host_->ExecuteBlock(txs, &state);
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), txs.size());
  for (size_t i = 0; i < receipts->size(); ++i) {
    EXPECT_EQ((*receipts)[i].success, i != 3) << "tx " << i;
  }
  EXPECT_EQ((*receipts)[3].error, "invalid signature");
  EXPECT_EQ(host_->sig_cache().Size(), txs.size() - 1);
  EXPECT_FALSE(host_->sig_cache().Contains(txs[3].Hash()));
}

}  // namespace
}  // namespace bcfl::chain
