#include "chain/consensus.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/thread_pool.h"

namespace bcfl::chain {
namespace {

/// Counter contract: method "inc" bumps a per-sender counter.
class CounterContract : public SmartContract {
 public:
  std::string name() const override { return "counter"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    if (tx.method() != "inc") return Status::Unimplemented(tx.method());
    std::string key = "count/" + tx.sender().ToHex();
    uint64_t value = 0;
    auto existing = state->Get(key);
    if (existing.ok()) {
      ByteReader reader(*existing);
      BCFL_ASSIGN_OR_RETURN(value, reader.ReadU64());
    }
    ByteWriter writer;
    writer.WriteU64(value + 1);
    state->Put(key, writer.Take());
    return Status::OK();
  }
};

class ConsensusFixture : public ::testing::Test {
 protected:
  ConsensusFixture() {
    host_ = std::make_shared<ContractHost>(scheme_);
    EXPECT_TRUE(host_->Register(std::make_shared<CounterContract>()).ok());
  }

  std::unique_ptr<ConsensusEngine> MakeEngine(size_t miners) {
    ConsensusConfig config;
    config.leader_seed = 7;
    return std::make_unique<ConsensusEngine>(miners, host_, config);
  }

  Transaction IncTx(uint64_t nonce) {
    return Transaction::Sign(
        {.contract = "counter", .method = "inc", .nonce = nonce},
        scheme_, key_, &rng_);
  }

  crypto::Schnorr scheme_;
  Xoshiro256 rng_{3};
  crypto::SchnorrKeyPair key_ = scheme_.GenerateKeyPair(&rng_);
  std::shared_ptr<ContractHost> host_;
};

TEST_F(ConsensusFixture, HonestMinersCommitUnanimously) {
  auto engine = MakeEngine(5);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 5u);
  EXPECT_EQ(result->reject_votes, 0u);
  EXPECT_EQ(result->height, 1u);
  EXPECT_EQ(result->num_txs, 1u);
  EXPECT_EQ(result->retries_used, 0u);
}

TEST_F(ConsensusFixture, AllReplicasConverge) {
  auto engine = MakeEngine(4);
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(engine->SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine->RunUntilDrained();
  ASSERT_TRUE(results.ok());
  crypto::Digest root = engine->miner(0).state().StateRoot();
  for (size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(engine->miner(m).state().StateRoot(), root);
    EXPECT_EQ(engine->miner(m).chain().Height(),
              engine->miner(0).chain().Height());
    EXPECT_TRUE(engine->miner(m).mempool().empty());
  }
}

TEST_F(ConsensusFixture, DuplicateTransactionsAreDeduplicated) {
  auto engine = MakeEngine(3);
  Transaction tx = IncTx(1);
  ASSERT_TRUE(engine->SubmitTransaction(tx).ok());
  ASSERT_TRUE(engine->SubmitTransaction(tx).ok());  // Gossip echo.
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_txs, 1u);
}

TEST_F(ConsensusFixture, ByzantineLeaderIsRejectedThenRotatedPast) {
  auto engine = MakeEngine(5);
  // Corrupt every miner that could become leader first with a tamper
  // hook on miner of the first-scheduled leader only.
  ConsensusConfig config;
  config.leader_seed = 7;
  LeaderSchedule schedule({0, 1, 2, 3, 4}, config.leader_seed);
  uint32_t first_leader = *schedule.LeaderFor(1, 0);

  MinerBehavior evil;
  evil.tamper_state = [](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
  };
  engine->miner(first_leader).set_behavior(evil);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // The fraudulent proposal was rejected; a later leader committed.
  EXPECT_GT(result->retries_used, 0u);
  EXPECT_NE(result->leader, first_leader);
  // The forged key never reached any replica.
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_FALSE(engine->miner(m).state().Has("forged"));
  }
}

// In-place execution must leave a replica exactly as it was whenever the
// block is not committed: after proposing (even with a tamper hook that
// writes), after a rejected validation and after a failed commit.
class MinerRollbackTest : public ConsensusFixture {
 protected:
  MinerRollbackTest() {
    Miner founder(0, host_);
    EXPECT_TRUE(founder.mempool().Add(IncTx(1)).ok());
    auto block = founder.ProposeBlock(1000);
    EXPECT_TRUE(block.ok());
    first_block_ = *block;
  }

  /// A miner holding the shared height-1 block, so trial executions
  /// overwrite an existing key as well as add new ones.
  std::unique_ptr<Miner> MinerWithHistory(uint32_t id) {
    auto miner = std::make_unique<Miner>(id, host_);
    EXPECT_TRUE(miner->CommitBlock(first_block_).ok());
    EXPECT_EQ(miner->state().size(), 1u);
    return miner;
  }

  /// A proposal for height 2 whose state root was forged by its leader.
  Block ForgedProposal() {
    auto leader = MinerWithHistory(9);
    MinerBehavior evil;
    evil.tamper_state = [](ContractState* state) {
      state->Put("forged", {0xde, 0xad});
    };
    leader->set_behavior(evil);
    EXPECT_TRUE(leader->mempool().Add(IncTx(2)).ok());
    auto block = leader->ProposeBlock(2000);
    EXPECT_TRUE(block.ok());
    return *block;
  }

  Block first_block_;
};

TEST_F(MinerRollbackTest, ProposeWithWritingTamperHookLeavesStateUntouched) {
  auto miner = MinerWithHistory(0);
  const crypto::Digest root = miner->state().StateRoot();
  const std::string counter = miner->state().KeysWithPrefix("count/")[0];
  MinerBehavior evil;
  evil.tamper_state = [&counter](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
    state->Delete(counter);
  };
  miner->set_behavior(evil);
  ASSERT_TRUE(miner->mempool().Add(IncTx(2)).ok());
  auto block = miner->ProposeBlock(2000);
  ASSERT_TRUE(block.ok());
  EXPECT_NE(block->header.state_root, root);
  EXPECT_EQ(miner->state().StateRoot(), root);
  EXPECT_EQ(miner->state().size(), 1u);
  EXPECT_FALSE(miner->state().Has("forged"));
  EXPECT_TRUE(miner->state().Has(counter));
  EXPECT_EQ(miner->chain().Height(), 1u);
}

TEST_F(MinerRollbackTest, RejectedValidationLeavesStateUntouched) {
  auto validator = MinerWithHistory(1);
  const crypto::Digest root = validator->state().StateRoot();
  auto verdict = validator->ValidateProposal(ForgedProposal());
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict);
  EXPECT_EQ(validator->state().StateRoot(), root);
  EXPECT_EQ(validator->state().size(), 1u);
}

TEST_F(MinerRollbackTest, AcceptedValidationAlsoRollsBack) {
  auto leader = MinerWithHistory(0);
  auto validator = MinerWithHistory(1);
  const crypto::Digest root = validator->state().StateRoot();
  ASSERT_TRUE(leader->mempool().Add(IncTx(2)).ok());
  auto block = leader->ProposeBlock(2000);
  ASSERT_TRUE(block.ok());
  auto verdict = validator->ValidateProposal(*block);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
  EXPECT_EQ(validator->state().StateRoot(), root);
  // Committing the validated block then applies it exactly once.
  ASSERT_TRUE(validator->CommitBlock(*block).ok());
  EXPECT_EQ(validator->state().StateRoot(), block->header.state_root);
}

TEST_F(MinerRollbackTest, TamperingLeaderFailsItsOwnCommit) {
  // The leader's own commit must not trust its tampered trial: the block
  // claims the tampered root, so the commit fails closed like every
  // honest replica's would, and leaves the leader's state as it was.
  auto leader = MinerWithHistory(0);
  const crypto::Digest root = leader->state().StateRoot();
  MinerBehavior evil;
  evil.tamper_state = [](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
  };
  leader->set_behavior(evil);
  ASSERT_TRUE(leader->mempool().Add(IncTx(2)).ok());
  auto block = leader->ProposeBlock(2000);
  ASSERT_TRUE(block.ok());
  Status st = leader->CommitBlock(*block);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(leader->state().StateRoot(), root);
  EXPECT_EQ(leader->state().size(), 1u);
  EXPECT_FALSE(leader->state().Has("forged"));
  EXPECT_EQ(leader->chain().Height(), 1u);
}

TEST_F(MinerRollbackTest, FailedCommitLeavesStateUntouched) {
  auto replica = MinerWithHistory(2);
  const crypto::Digest root = replica->state().StateRoot();
  Status st = replica->CommitBlock(ForgedProposal());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(replica->state().StateRoot(), root);
  EXPECT_EQ(replica->state().size(), 1u);
  EXPECT_FALSE(replica->state().Has("forged"));
  EXPECT_EQ(replica->chain().Height(), 1u);
}

TEST_F(ConsensusFixture, MinorityGriefersCannotBlockProgress) {
  auto engine = MakeEngine(5);
  MinerBehavior reject;
  reject.always_reject = true;
  engine->miner(3).set_behavior(reject);
  engine->miner(4).set_behavior(reject);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  // 3 accepts (including an honest leader) > 5/2 — commits eventually.
  EXPECT_TRUE(result->committed);
}

TEST_F(ConsensusFixture, MajorityGriefersHaltConsensus) {
  auto engine = MakeEngine(5);
  MinerBehavior reject;
  reject.always_reject = true;
  for (size_t m = 1; m < 5; ++m) engine->miner(m).set_behavior(reject);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_EQ(engine->miner(0).chain().Height(), 0u);
}

TEST_F(ConsensusFixture, BadSignatureTxCommitsAsFailedReceiptDeterministically) {
  // A transaction with an invalid signature still enters a block; every
  // replica marks it failed identically, so consensus is unaffected.
  auto engine = MakeEngine(3);
  Transaction signed_tx = IncTx(1);
  TxBody body = signed_tx.body();
  body.payload = {9};  // Breaks the signature.
  const Transaction bad(std::move(body), signed_tx.sender(),
                        signed_tx.signature());
  ASSERT_TRUE(engine->SubmitTransaction(bad).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // No counter key was created anywhere.
  EXPECT_EQ(engine->miner(0).state().size(), 0u);
}

TEST_F(ConsensusFixture, RunUntilDrainedCommitsEverything) {
  auto engine = MakeEngine(3);
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(engine->SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine->RunUntilDrained();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(engine->CanonicalChain().TotalTransactions(), 10u);
  // All 10 increments landed.
  auto counter =
      engine->CanonicalState().Get("count/" + key_.public_key.ToHex());
  ASSERT_TRUE(counter.ok());
  ByteReader reader(*counter);
  EXPECT_EQ(*reader.ReadU64(), 10u);
}

TEST_F(ConsensusFixture, MaxTxsPerBlockSplitsBatches) {
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_txs_per_block = 2;
  ConsensusEngine engine(3, host_, config);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(engine.SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine.RunUntilDrained();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);  // 2 + 2 + 1.
  EXPECT_EQ(engine.CanonicalChain().TotalTransactions(), 5u);
}

TEST_F(ConsensusFixture, NetworkTrafficIsGenerated) {
  auto engine = MakeEngine(4);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  // 3 proposal messages + 3 votes.
  EXPECT_EQ(engine->network().stats().messages_sent, 6u);
}

TEST_F(ConsensusFixture, LossyNetworkEventuallyCommits) {
  // 20% message loss: proposals or votes can vanish, failing individual
  // attempts, but retries with fresh leaders make progress.
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_retries = 30;
  config.network.drop_probability = 0.2;
  config.network.seed = 123;
  ConsensusEngine engine(5, host_, config);
  ASSERT_TRUE(engine.SubmitTransaction(IncTx(1)).ok());
  auto result = engine.RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // All replicas still converge.
  crypto::Digest root = engine.miner(0).state().StateRoot();
  for (size_t m = 1; m < 5; ++m) {
    EXPECT_EQ(engine.miner(m).state().StateRoot(), root);
  }
}

TEST_F(ConsensusFixture, TotalMessageLossExhaustsRetries) {
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_retries = 3;
  config.network.drop_probability = 1.0;  // Nothing ever arrives.
  ConsensusEngine engine(5, host_, config);
  ASSERT_TRUE(engine.SubmitTransaction(IncTx(1)).ok());
  auto result = engine.RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_EQ(engine.miner(0).chain().Height(), 0u);
}

TEST_F(ConsensusFixture, SingleMinerCommitsAlone) {
  // Degenerate but valid: one miner is its own majority.
  auto engine = MakeEngine(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 1u);
}

TEST_F(ConsensusFixture, ViewChangeRotatesPastCrashedLeader) {
  auto engine = MakeEngine(5);
  LeaderSchedule schedule({0, 1, 2, 3, 4}, 7);
  uint32_t first_leader = *schedule.LeaderFor(1, 0);

  auto plan = fault::FaultPlan::Parse(
      "crash miner " + std::to_string(first_leader) + " @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  uint64_t clock_before = engine->network().clock().NowMicros();
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_NE(result->leader, first_leader);
  EXPECT_GT(result->retries_used, 0u);
  // The view change burned simulated (never wall-clock) time.
  EXPECT_GT(engine->network().clock().NowMicros() - clock_before, 50'000u);
  // The crashed miner saw nothing; the four live replicas committed.
  EXPECT_EQ(engine->miner(first_leader).chain().Height(), 0u);
  for (uint32_t m = 0; m < 5; ++m) {
    if (m == first_leader) continue;
    EXPECT_EQ(engine->miner(m).chain().Height(), 1u);
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, DuplicatedVotesCountEachMinerOnce) {
  // Every miner duplicates its traffic: proposals arrive twice (so
  // validators vote twice) and each vote is delivered twice. The tally
  // must still count five distinct voters, not nine messages.
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse(
      "duplicate miner 0 @0; duplicate miner 1 @0; duplicate miner 2 @0; "
      "duplicate miner 3 @0; duplicate miner 4 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 5u);
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, DuplicatedVoteCannotForgeMajority) {
  // Only two of five miners are online and one duplicates its outbound
  // vote. A doubled accept must not be mistaken for a third voter: two
  // distinct accepts (leader + one validator) are not a strict majority
  // of the full roster, so nothing may commit.
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse(
      "crash miner 2 @0; crash miner 3 @0; crash miner 4 @0; "
      "duplicate miner 0 @0; duplicate miner 1 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_LE(result->accept_votes, 2u);
  for (uint32_t m = 0; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).chain().Height(), 0u) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, RecoveredMinerIsReadmittedByCatchUp) {
  auto engine = MakeEngine(5);
  auto plan =
      fault::FaultPlan::Parse("crash miner 4 @0; recover miner 4 @1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  engine->set_fault_injector(&injector);

  // Two blocks commit while miner 4 is down.
  injector.BeginRound(0);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(2)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  EXPECT_EQ(engine->miner(4).chain().Height(), 0u);
  EXPECT_EQ(engine->CanonicalChain().Height(), 2u);

  // Back online: the next round first replays the canonical blocks into
  // the laggard, then it participates in the new height normally.
  injector.BeginRound(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(3)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(engine->miner(4).chain().Height(), 3u);
  crypto::Digest root = engine->miner(0).state().StateRoot();
  for (size_t m = 1; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).state().StateRoot(), root) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, MinorityPartitionCellFallsBehindThenCatchesUp) {
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse("partition miners 3,4 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  engine->set_fault_injector(&injector);

  injector.BeginRound(0);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  // The majority side (3 of 5) commits without the isolated cell.
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(engine->miner(3).chain().Height(), 0u);
  EXPECT_EQ(engine->miner(4).chain().Height(), 0u);
  EXPECT_EQ(engine->CanonicalChain().Height(), 1u);

  // Partition heals at round 1: the cell is caught up with the next round.
  injector.BeginRound(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(2)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).chain().Height(), 2u) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

/// Writes `tx/<nonce>` and counts its executions. Validations run
/// concurrently on a pool, so the count is atomic.
class CountingContract : public SmartContract {
 public:
  std::string name() const override { return "counting"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    executions_.fetch_add(1, std::memory_order_relaxed);
    ByteWriter writer;
    writer.WriteU64(tx.nonce());
    state->Put("tx/" + std::to_string(tx.nonce()), writer.Take());
    return Status::OK();
  }
  size_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> executions_{0};
};

// Each miner executes each block once: its proposal trial or accepted
// validation stands in for the commit's execution of the same block.
class SingleExecutionTest : public ConsensusFixture {
 protected:
  SingleExecutionTest() { EXPECT_TRUE(host_->Register(counter_).ok()); }

  Transaction PutTx(uint64_t nonce) {
    return Transaction::Sign(
        {.contract = "counting", .method = "put", .nonce = nonce}, scheme_,
        key_, &rng_);
  }

  std::shared_ptr<CountingContract> counter_ =
      std::make_shared<CountingContract>();
};

TEST_F(SingleExecutionTest, CommitAfterAcceptedValidationRunsNoContract) {
  Miner leader(0, host_);
  Miner validator(1, host_);
  ASSERT_TRUE(leader.mempool().Add(PutTx(1)).ok());
  auto block = leader.ProposeBlock(1000);
  ASSERT_TRUE(block.ok());
  auto verdict = validator.ValidateProposal(*block);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(*verdict);
  EXPECT_EQ(counter_->executions(), 2u);

  ASSERT_TRUE(validator.CommitBlock(*block).ok());
  ASSERT_TRUE(leader.CommitBlock(*block).ok());
  EXPECT_EQ(counter_->executions(), 2u);
  EXPECT_EQ(validator.state().StateRoot(), block->header.state_root);
  EXPECT_EQ(leader.state().StateRoot(), block->header.state_root);
  EXPECT_TRUE(validator.state().Has("tx/1"));
  EXPECT_EQ(validator.chain().Height(), 1u);
}

TEST_F(SingleExecutionTest, CommittingAnotherBlockExecutesIt) {
  // The validator accepted B, but consensus settles on B' at the same
  // height (a retry under another leader): B' runs in full and none of
  // B's writes land.
  Miner leader_b(0, host_);
  Miner leader_b2(1, host_);
  Miner validator(2, host_);
  ASSERT_TRUE(leader_b.mempool().Add(PutTx(1)).ok());
  ASSERT_TRUE(leader_b2.mempool().Add(PutTx(2)).ok());
  auto b = leader_b.ProposeBlock(1000);
  auto b2 = leader_b2.ProposeBlock(1000);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b2.ok());
  auto verdict = validator.ValidateProposal(*b);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(*verdict);

  const size_t before = counter_->executions();
  ASSERT_TRUE(validator.CommitBlock(*b2).ok());
  EXPECT_EQ(counter_->executions(), before + 1);
  EXPECT_EQ(validator.state().StateRoot(), b2->header.state_root);
  EXPECT_TRUE(validator.state().Has("tx/2"));
  EXPECT_FALSE(validator.state().Has("tx/1"));
}

TEST_F(SingleExecutionTest, OneRoundExecutesOncePerMiner) {
  auto engine = MakeEngine(5);
  ASSERT_TRUE(engine->SubmitTransaction(PutTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->committed);
  // One proposal trial and four validations; the five commits apply.
  EXPECT_EQ(counter_->executions(), 5u);
  const crypto::Digest root =
      engine->CanonicalChain().Tip().header.state_root;
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).state().StateRoot(), root) << "miner " << m;
  }
}

TEST_F(SingleExecutionTest, PooledValidationMatchesSerialUnderNetworkFaults) {
  // Duplicated proposals and votes, reorder jitter and a slow link: the
  // votes of pooled validations must still be sent in delivery order at
  // delivery time, so every message, draw and the clock match the
  // engine that validates one miner after another.
  auto plan = fault::FaultPlan::Parse(
      "duplicate miner 0 @0; duplicate miner 3 @0; reorder miner 1 @0; "
      "reorder miner 2 @0; slow miner 4 @0 +7000us");
  ASSERT_TRUE(plan.ok());
  std::vector<Transaction> txs;
  for (uint64_t i = 1; i <= 6; ++i) txs.push_back(PutTx(i));

  struct Outcome {
    crypto::Digest tip;
    std::vector<crypto::Digest> roots;
    net::NetworkStats stats;
    uint64_t clock_us;
  };
  auto run = [&](ThreadPool* pool) {
    ConsensusConfig config;
    config.leader_seed = 7;
    ConsensusEngine engine(5, host_, config, pool);
    fault::FaultInjector injector(*plan, 0, 5);
    injector.BeginRound(0);
    engine.set_fault_injector(&injector);
    for (const Transaction& tx : txs) {
      EXPECT_TRUE(engine.SubmitTransaction(tx).ok());
      auto result = engine.RunRound();
      EXPECT_TRUE(result.ok() && result->committed);
    }
    Outcome out;
    out.tip = engine.CanonicalChain().Tip().header.Hash();
    for (size_t m = 0; m < 5; ++m) {
      out.roots.push_back(engine.miner(m).state().StateRoot());
    }
    out.stats = engine.network().stats();
    out.clock_us = engine.network().clock().NowMicros();
    engine.set_fault_injector(nullptr);
    return out;
  };
  ThreadPool pool(4);
  const Outcome pooled = run(&pool);
  const Outcome serial = run(nullptr);

  EXPECT_EQ(pooled.tip, serial.tip);
  EXPECT_EQ(pooled.roots, serial.roots);
  EXPECT_EQ(pooled.clock_us, serial.clock_us);
  EXPECT_EQ(pooled.stats.messages_sent, serial.stats.messages_sent);
  EXPECT_EQ(pooled.stats.messages_delivered, serial.stats.messages_delivered);
  EXPECT_EQ(pooled.stats.messages_dropped, serial.stats.messages_dropped);
  EXPECT_EQ(pooled.stats.messages_duplicated,
            serial.stats.messages_duplicated);
  EXPECT_EQ(pooled.stats.messages_reordered, serial.stats.messages_reordered);
  EXPECT_EQ(pooled.stats.bytes_sent, serial.stats.bytes_sent);
  EXPECT_EQ(pooled.stats.delivered_per_node, serial.stats.delivered_per_node);
  // Pinned: what validators that vote from inside their delivery handler
  // produce under this plan — the same draws, sequence numbers and clock.
  EXPECT_EQ(crypto::DigestToHex(serial.tip),
            "22c667d9cfc20ca25bf48080371ef15489aa185135b4a2edfbe18d382f2ca114");
  EXPECT_EQ(serial.clock_us, 133811u);
  EXPECT_EQ(serial.stats.messages_sent, 60u);
  EXPECT_EQ(serial.stats.messages_delivered, 84u);
  EXPECT_EQ(serial.stats.messages_duplicated, 24u);
  EXPECT_EQ(serial.stats.messages_reordered, 21u);
  EXPECT_EQ(serial.stats.bytes_sent, 8088u);
  const std::map<net::NodeId, uint64_t> per_node = {
      {0, 33}, {1, 9}, {2, 19}, {3, 9}, {4, 14}};
  EXPECT_EQ(serial.stats.delivered_per_node, per_node);
}

TEST(LeaderScheduleTest, DeterministicAndInRange) {
  LeaderSchedule schedule({10, 20, 30}, 42);
  for (uint64_t h = 1; h <= 20; ++h) {
    auto leader = schedule.LeaderFor(h);
    ASSERT_TRUE(leader.ok());
    EXPECT_TRUE(*leader == 10 || *leader == 20 || *leader == 30);
    EXPECT_EQ(*leader, *schedule.LeaderFor(h));
  }
  EXPECT_TRUE(schedule.LeaderFor(0).status().IsInvalidArgument());
}

TEST(LeaderScheduleTest, RetriesRotateLeaders) {
  LeaderSchedule schedule({0, 1, 2, 3, 4}, 9);
  // Over several retries at one height, more than one leader appears.
  std::set<uint32_t> leaders;
  for (uint32_t r = 0; r < 5; ++r) leaders.insert(*schedule.LeaderFor(1, r));
  EXPECT_GT(leaders.size(), 1u);
}

TEST(LeaderScheduleTest, EmptyMinerSetFails) {
  LeaderSchedule schedule({}, 1);
  EXPECT_TRUE(schedule.LeaderFor(1).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace bcfl::chain
