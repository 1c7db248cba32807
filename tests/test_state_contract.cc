#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "chain/contract_host.h"
#include "chain/state.h"
#include "common/rng.h"

namespace bcfl::chain {
namespace {

TEST(ContractStateTest, PutGetDelete) {
  ContractState state;
  EXPECT_FALSE(state.Has("k"));
  EXPECT_TRUE(state.Get("k").status().IsNotFound());
  state.Put("k", {1, 2});
  EXPECT_TRUE(state.Has("k"));
  EXPECT_EQ(*state.Get("k"), (Bytes{1, 2}));
  state.Put("k", {3});
  EXPECT_EQ(*state.Get("k"), (Bytes{3}));
  state.Delete("k");
  EXPECT_FALSE(state.Has("k"));
  EXPECT_EQ(state.size(), 0u);
}

TEST(ContractStateTest, PrefixScanIsSortedAndBounded) {
  ContractState state;
  state.Put("update/00000001/a", {});
  state.Put("update/00000001/b", {});
  state.Put("update/00000002/a", {});
  state.Put("other", {});
  auto keys = state.KeysWithPrefix("update/00000001/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "update/00000001/a");
  EXPECT_EQ(keys[1], "update/00000001/b");
  EXPECT_EQ(state.KeysWithPrefix("missing/").size(), 0u);
  EXPECT_EQ(state.KeysWithPrefix("").size(), 4u);
}

TEST(ContractStateTest, StateRootDeterministicAndOrderInsensitive) {
  ContractState a, b;
  a.Put("x", {1});
  a.Put("y", {2});
  b.Put("y", {2});
  b.Put("x", {1});
  EXPECT_EQ(a.StateRoot(), b.StateRoot());
}

TEST(ContractStateTest, StateRootSensitiveToContent) {
  ContractState a, b;
  a.Put("x", {1});
  b.Put("x", {2});
  EXPECT_NE(a.StateRoot(), b.StateRoot());
  ContractState c;
  c.Put("y", {1});
  EXPECT_NE(a.StateRoot(), c.StateRoot());
}

TEST(ContractStateTest, KeyValueBoundaryIsUnambiguous) {
  // ("ab", "c") must hash differently from ("a", "bc").
  ContractState a, b;
  a.Put("ab", {'c'});
  b.Put("a", {'b', 'c'});
  EXPECT_NE(a.StateRoot(), b.StateRoot());
}

TEST(ContractStateTest, ScopeRollbackIsolation) {
  ContractState state;
  state.Put("k", {1});
  state.Put("gone", {4});
  const crypto::Digest before = state.StateRoot();
  {
    ContractState::Scope scope(&state);
    state.Put("k", {2});
    state.Put("new", {3});
    state.Delete("gone");
    EXPECT_EQ(*state.Get("k"), (Bytes{2}));
  }
  EXPECT_EQ(*state.Get("k"), (Bytes{1}));
  EXPECT_FALSE(state.Has("new"));
  EXPECT_EQ(*state.Get("gone"), (Bytes{4}));
  EXPECT_EQ(state.size(), 2u);
  EXPECT_EQ(state.StateRoot(), before);
}

TEST(ContractStateTest, KeptScopePersistsWrites) {
  ContractState state;
  state.Put("k", {1});
  {
    ContractState::Scope scope(&state);
    state.Put("k", {2});
    state.Put("new", {3});
    scope.Keep();
  }
  EXPECT_EQ(*state.Get("k"), (Bytes{2}));
  EXPECT_EQ(*state.Get("new"), (Bytes{3}));
}

TEST(ContractStateTest, KeptInnerScopeIsStillRolledBackByItsParent) {
  ContractState state;
  state.Put("k", {1});
  {
    ContractState::Scope outer(&state);
    state.Put("outer", {1});
    {
      ContractState::Scope kept(&state);
      state.Put("k", {2});
      kept.Keep();
    }
    {
      ContractState::Scope dropped(&state);
      state.Put("k", {3});
      state.Delete("outer");
    }
    EXPECT_EQ(*state.Get("k"), (Bytes{2}));
    EXPECT_TRUE(state.Has("outer"));
  }
  EXPECT_EQ(*state.Get("k"), (Bytes{1}));
  EXPECT_FALSE(state.Has("outer"));
  EXPECT_EQ(state.size(), 1u);
}

TEST(ContractStateTest, ScopeWritesReplayOntoAStateWithTheSameContents) {
  ContractState executed;
  ContractState replica;
  for (ContractState* state : {&executed, &replica}) {
    state->Put("kept", {1});
    state->Put("gone", {2});
    state->Put("over", {3});
  }
  const crypto::Digest base = replica.StateRoot();
  ContractState::WriteSet writes;
  crypto::Digest after;
  {
    ContractState::Scope trial(&executed);
    executed.Put("over", {4});
    executed.Put("over", {5});
    executed.Delete("gone");
    executed.Put("brief", {6});  // Created and deleted: a net no-op.
    executed.Delete("brief");
    executed.Put("new", {7});
    writes = trial.Writes();
    after = executed.StateRoot();
  }
  EXPECT_EQ(executed.StateRoot(), base);
  EXPECT_EQ(writes.size(), 4u);  // over, gone, brief, new.
  {
    // Journaled like any write: an enclosing scope rolls it back.
    ContractState::Scope apply(&replica);
    replica.Apply(writes);
    EXPECT_EQ(replica.StateRoot(), after);
  }
  EXPECT_EQ(replica.StateRoot(), base);
  replica.Apply(std::move(writes));
  EXPECT_EQ(replica.StateRoot(), after);
  EXPECT_EQ(*replica.Get("over"), (Bytes{5}));
  EXPECT_EQ(*replica.Get("new"), (Bytes{7}));
  EXPECT_TRUE(replica.Has("kept"));
  EXPECT_FALSE(replica.Has("gone"));
  EXPECT_FALSE(replica.Has("brief"));
}

// Frozen state-root vectors (the test_gen idiom: fixed inputs, expected
// outputs generated once from an independent implementation of the
// PROTOCOL.md §5 definition and committed). A change to any of these hex
// strings is a consensus format break and needs a new state-root domain
// tag plus block-log and checkpoint version bumps.
struct RootVector {
  const char* name;
  std::vector<std::pair<std::string, Bytes>> entries;
  const char* root_hex;
};

std::vector<RootVector> RootVectors() {
  return {
      {"empty", {},
       "373c4d69b9d86c71d2960b642036f5159e60e6bfbe85a4674639cb8921ed7b34"},
      {"empty_value", {{"a", {}}},
       "fa424b12d3d2981d45503708b5a6bc60ef04445c60685784b9a41ef6792fb4f7"},
      // "a" is a prefix of "ab"; the third key is UTF-8 "round/é"; the
      // values cover empty, high-bit and NUL bytes.
      {"mixed",
       {{"z", {0xde, 0xad, 0xbe, 0xef}},
        {"ab", {0x01}},
        {"round/\xc3\xa9", {0x00, 0xff, 0x80}},
        {"a", {}}},
       "10fb60d6b81c6e6f2b112e580677597dd1c05faaf7520039c6ab2f2a7fd42e33"},
  };
}

TEST(ContractStateTest, StateRootMatchesFrozenVectors) {
  for (const RootVector& vector : RootVectors()) {
    ContractState state;
    for (const auto& [key, value] : vector.entries) state.Put(key, value);
    EXPECT_EQ(crypto::DigestToHex(state.StateRoot()), vector.root_hex)
        << vector.name;
  }
}

/// The state-root definition computed from scratch over a plain map: a
/// fold of SHA-256(len‖key‖len‖value) leaves behind the domain tag.
crypto::Digest ReferenceRoot(const std::map<std::string, Bytes>& entries) {
  crypto::Sha256 root;
  root.Update(std::string_view("bcfl-state-v2"));
  for (const auto& [key, value] : entries) {
    ByteWriter leaf;
    leaf.WriteString(key);
    leaf.WriteBytes(value);
    root.Update(crypto::DigestToBytes(crypto::Sha256::Hash(leaf.buffer())));
  }
  return root.Finish();
}

// In-place execution must earn what whole-state copies used to give for
// free: after any mix of writes, nested scopes, rollbacks and keeps, the
// store equals a plain map that replays only the kept writes, and its root
// equals a from-scratch recomputation.
TEST(ContractStateTest, RandomizedJournalMatchesReferenceMap) {
  const std::vector<std::string> key_pool = {
      "", "k", "k1", "k10", "k2", "update/00000001/a", "\xff", "z"};
  Xoshiro256 rng(20261017);
  ContractState state;
  std::map<std::string, Bytes> reference;
  std::vector<std::unique_ptr<ContractState::Scope>> scopes;
  std::vector<std::map<std::string, Bytes>> saved;  // Reference per scope.

  auto check = [&](int step) {
    ASSERT_EQ(state.size(), reference.size()) << "step " << step;
    std::vector<std::string> keys;
    for (const auto& [key, value] : reference) {
      keys.push_back(key);
      auto got = state.Get(key);
      ASSERT_TRUE(got.ok()) << "step " << step << " key " << key;
      ASSERT_EQ(*got, value) << "step " << step << " key " << key;
    }
    ASSERT_EQ(state.KeysWithPrefix(""), keys) << "step " << step;
    ASSERT_EQ(state.StateRoot(), ReferenceRoot(reference)) << "step " << step;
  };

  for (int step = 0; step < 4000; ++step) {
    const std::string& key = key_pool[rng.NextBounded(key_pool.size())];
    switch (rng.NextBounded(6)) {
      case 0:
      case 1: {  // Put: a fresh key or an overwrite.
        Bytes value(rng.NextBounded(6));
        for (uint8_t& b : value) b = static_cast<uint8_t>(rng.Next());
        state.Put(key, value);
        reference[key] = value;
        break;
      }
      case 2:  // Delete, present or absent.
        state.Delete(key);
        reference.erase(key);
        break;
      case 3:  // Open a nested scope.
        if (scopes.size() < 6) {
          scopes.push_back(std::make_unique<ContractState::Scope>(&state));
          saved.push_back(reference);
        }
        break;
      case 4:  // Roll the innermost scope back.
        if (!scopes.empty()) {
          scopes.pop_back();
          reference = std::move(saved.back());
          saved.pop_back();
        }
        break;
      case 5:  // Keep the innermost scope.
        if (!scopes.empty()) {
          scopes.back()->Keep();
          scopes.pop_back();
          saved.pop_back();
        }
        break;
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  while (!scopes.empty()) {
    scopes.pop_back();
    reference = std::move(saved.back());
    saved.pop_back();
    check(-1);
    if (HasFatalFailure()) return;
  }
}

/// Test contract: method "put" stores payload under the key in the
/// payload's first half; method "fail" writes then errors (to exercise
/// rollback); anything else is unimplemented.
class EchoContract : public SmartContract {
 public:
  std::string name() const override { return "echo"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    if (tx.method() == "put") {
      state->Put("echo/" + std::to_string(tx.nonce()), tx.payload());
      return Status::OK();
    }
    if (tx.method() == "fail") {
      state->Put("should_not_persist", {1});
      return Status::Internal("deliberate failure");
    }
    return Status::Unimplemented(tx.method());
  }
};

class HostFixture : public ::testing::Test {
 protected:
  HostFixture() {
    host_ = std::make_unique<ContractHost>(scheme_);
    EXPECT_TRUE(host_->Register(std::make_shared<EchoContract>()).ok());
  }

  Transaction SignedTx(const std::string& contract, const std::string& method,
                       uint64_t nonce = 1) {
    return Transaction::Sign({.contract = contract,
                              .method = method,
                              .payload = {42},
                              .nonce = nonce},
                             scheme_, key_, &rng_);
  }

  crypto::Schnorr scheme_;
  Xoshiro256 rng_{2};
  crypto::SchnorrKeyPair key_ = scheme_.GenerateKeyPair(&rng_);
  std::unique_ptr<ContractHost> host_;
};

TEST_F(HostFixture, RegisterRejectsDuplicatesAndNull) {
  EXPECT_TRUE(
      host_->Register(std::make_shared<EchoContract>()).IsAlreadyExists());
  EXPECT_TRUE(host_->Register(nullptr).IsInvalidArgument());
  EXPECT_TRUE(host_->HasContract("echo"));
  EXPECT_FALSE(host_->HasContract("nope"));
}

TEST_F(HostFixture, ExecutesValidTransaction) {
  ContractState state;
  auto receipt = host_->ExecuteTransaction(SignedTx("echo", "put", 5), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  EXPECT_TRUE(state.Has("echo/5"));
}

TEST_F(HostFixture, RejectsBadSignatureWithoutStateChange) {
  ContractState state;
  Transaction signed_tx = SignedTx("echo", "put");
  TxBody body = signed_tx.body();
  body.payload.push_back(9);  // Invalidate signature.
  const Transaction tx(std::move(body), signed_tx.sender(),
                       signed_tx.signature());
  auto receipt = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_EQ(receipt->error, "invalid signature");
  EXPECT_EQ(state.size(), 0u);
}

TEST_F(HostFixture, RejectsUnknownContract) {
  ContractState state;
  auto receipt =
      host_->ExecuteTransaction(SignedTx("missing", "put"), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->error.find("unknown contract"), std::string::npos);
}

TEST_F(HostFixture, FailedExecutionRollsBackPartialWrites) {
  ContractState state;
  state.Put("pre", {1});
  auto receipt = host_->ExecuteTransaction(SignedTx("echo", "fail"), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_FALSE(state.Has("should_not_persist"));
  EXPECT_TRUE(state.Has("pre"));
}

TEST_F(HostFixture, TransactionScopesNestInsideAnEnclosingScope) {
  ContractState state;
  state.Put("pre", {1});
  const crypto::Digest before = state.StateRoot();
  {
    ContractState::Scope block(&state);
    auto ok = host_->ExecuteTransaction(SignedTx("echo", "put", 1), &state);
    auto failed = host_->ExecuteTransaction(SignedTx("echo", "fail", 2), &state);
    ASSERT_TRUE(ok.ok() && failed.ok());
    EXPECT_TRUE(ok->success);
    EXPECT_FALSE(failed->success);
    // The failed tx undid only its own write; the kept one stays visible
    // until the enclosing scope decides.
    EXPECT_TRUE(state.Has("echo/1"));
    EXPECT_FALSE(state.Has("should_not_persist"));
  }
  EXPECT_FALSE(state.Has("echo/1"));
  EXPECT_EQ(state.StateRoot(), before);
}

TEST_F(HostFixture, ExecuteBlockMixesSuccessAndFailureDeterministically) {
  ContractState state;
  std::vector<Transaction> txs = {SignedTx("echo", "put", 1),
                                  SignedTx("echo", "fail", 2),
                                  SignedTx("echo", "put", 3)};
  auto receipts = host_->ExecuteBlock(txs, &state);
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), 3u);
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_FALSE((*receipts)[1].success);
  EXPECT_TRUE((*receipts)[2].success);
  EXPECT_TRUE(state.Has("echo/1"));
  EXPECT_TRUE(state.Has("echo/3"));

  // Re-execution on a fresh state yields the identical root — the
  // property consensus relies on.
  ContractState replay;
  ASSERT_TRUE(host_->ExecuteBlock(txs, &replay).ok());
  EXPECT_EQ(replay.StateRoot(), state.StateRoot());
}

}  // namespace
}  // namespace bcfl::chain
