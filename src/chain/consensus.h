#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "chain/leader.h"
#include "chain/miner.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "fault/injector.h"
#include "net/network.h"

namespace bcfl::chain {

/// Simulated time burned waiting for a crashed or unreachable leader
/// before rotating to the next one in the schedule.
inline constexpr uint64_t kViewChangeTimeoutUs = 50'000;

/// Parameters of the consensus engine.
struct ConsensusConfig {
  uint64_t leader_seed = 2021;
  size_t max_txs_per_block = 0;   ///< 0 = no cap.
  uint32_t max_retries = 8;       ///< Leader rotations before giving up.
  net::NetworkConfig network;
};

/// Outcome of one consensus round.
struct CommitResult {
  bool committed = false;
  uint32_t leader = 0;          ///< The leader whose proposal decided it.
  uint32_t retries_used = 0;    ///< Rejected proposals before success.
  size_t accept_votes = 0;
  size_t reject_votes = 0;
  uint64_t height = 0;
  crypto::Digest block_hash{};
  size_t num_txs = 0;
};

/// Honest-majority propose/verify/vote consensus over the simulated P2P
/// network — the blockchain protocol of Sect. III.
///
/// One `RunRound` call:
///  1. The schedule picks a leader for the next height; the leader
///     executes its mempool (rolled back afterwards) and broadcasts the
///     block.
///  2. Every other miner that received the proposal re-executes it
///     against its own state replica and unicasts an accept/reject vote
///     back. Each miner owns its replica, so these validations run in
///     parallel on the engine's pool; the votes are then sent in the
///     order the proposals were delivered, each stamped at its delivery
///     time, so message order and the simulated clock do not depend on
///     the pool.
///  3. With strict-majority accepts (> n/2, the proposer counting as an
///     implicit accept), every miner commits, applying the writes of its
///     own proposal trial or validation instead of executing the block a
///     second time; otherwise the proposal is discarded and the next
///     leader in the fallback rotation proposes ("they wait for another
///     leader to propose").
///
/// All proposal/vote traffic crosses `SimulatedNetwork`, so the same
/// engine measures throughput and latency for the Ablation-B benchmark.
///
/// With a fault injector attached (`set_fault_injector`), the engine
/// tolerates crashed and partitioned miners up to a minority of the
/// roster: an offline, partitioned-away or stale-chained leader times out
/// (simulated clock) and the view changes to the next leader in the
/// rotation; commits only apply to reachable replicas; miners that come
/// back online are re-admitted by replaying the canonical chain through
/// their own `CommitBlock` before the next proposal. The strict-majority
/// vote threshold always counts the FULL roster, so a minority partition
/// can never commit a conflicting block.
class ConsensusEngine {
 public:
  /// `pool` (not owned; null = one validation after another) runs each
  /// proposal's validations; it must outlive the engine.
  ConsensusEngine(size_t num_miners, std::shared_ptr<const ContractHost> host,
                  ConsensusConfig config = {}, ThreadPool* pool = nullptr);

  size_t num_miners() const { return miners_.size(); }
  Miner& miner(size_t i) { return *miners_[i]; }
  const Miner& miner(size_t i) const { return *miners_[i]; }
  const net::SimulatedNetwork& network() const { return network_; }
  net::SimulatedNetwork& mutable_network() { return network_; }

  /// Gossips `tx` to every miner's mempool.
  Status SubmitTransaction(const Transaction& tx);

  /// Runs consensus for the next height. Retries with fallback leaders
  /// until a proposal commits or `max_retries` is exhausted.
  Result<CommitResult> RunRound();

  /// Runs rounds until every mempool is drained (or no progress is
  /// possible). Returns one result per committed block.
  Result<std::vector<CommitResult>> RunUntilDrained(size_t max_rounds = 1000);

  /// The canonical committed state: the longest chain among online,
  /// majority-side replicas (miner 0 when no faults are injected).
  const ContractState& CanonicalState() const {
    return miners_[CanonicalMinerIndex()]->state();
  }
  const Blockchain& CanonicalChain() const {
    return miners_[CanonicalMinerIndex()]->chain();
  }

  /// Attaches the chaos injector (not owned; may be nullptr to detach)
  /// and installs its message filter on the miners' network.
  void set_fault_injector(fault::FaultInjector* injector);
  fault::FaultInjector* fault_injector() const { return injector_; }

  /// Sink invoked with every block the engine commits, after all
  /// reachable replicas applied it. This is the durability hook: the
  /// append-only block log fsyncs each committed block here, so a sink
  /// error fails the commit closed instead of acknowledging a block that
  /// never reached disk.
  using CommitSink = std::function<Status(const Block&)>;
  void set_commit_sink(CommitSink sink) { commit_sink_ = std::move(sink); }

  /// Restart path: applies one settled block from the durable log.
  /// `miner_heights` (by miner id) are the per-replica committed heights
  /// captured in the checkpoint — a replica that was lagging then (crashed
  /// or partitioned while the block committed) skips it here and catches
  /// up in-session exactly as it would have without the restart. Bypasses
  /// the vote path: the block carried a majority when first committed, and
  /// every replica still re-executes it against its own state root. The
  /// commit sink is NOT invoked (the block is already on disk).
  Status ReplayCommittedBlock(const Block& block,
                              const std::map<uint32_t, uint64_t>& miner_heights);

  /// Committed chain height of every replica, for session checkpoints.
  std::map<uint32_t, uint64_t> MinerHeights() const;

  /// True when `id` is online and reachable from the canonical replica
  /// this round. Always true without an injector.
  bool MinerParticipating(uint32_t id) const;

 private:
  /// One proposal attempt at the given retry depth.
  Result<CommitResult> TryPropose(uint64_t height, uint32_t retries);

  /// Validates the proposal deliveries recorded during the drain, once
  /// per validator and across the pool, then queues one vote per
  /// delivery in delivery order, sent at that delivery's time.
  void AnswerProposals();

  /// Index of the replica whose chain is canonical: greatest committed
  /// height among online majority-side miners, lowest id breaking ties.
  size_t CanonicalMinerIndex() const;

  /// Replays canonical blocks into every participating replica that fell
  /// behind (crashed or partitioned while blocks committed), re-admitting
  /// it to consensus. Returns the number of blocks replayed.
  size_t CatchUpLaggards();

  std::shared_ptr<const ContractHost> host_;
  ConsensusConfig config_;
  ThreadPool* pool_;
  net::SimulatedNetwork network_;
  std::vector<std::unique_ptr<Miner>> miners_;
  std::unique_ptr<LeaderSchedule> schedule_;
  fault::FaultInjector* injector_ = nullptr;
  CommitSink commit_sink_;

  // Per-attempt vote collection (filled by network handlers). Votes are
  // keyed by the voter id carried in the payload so each roster member
  // counts at most once — a duplicated vote message (duplicate-miner
  // fault) cannot manufacture a strict majority.
  struct VoteBox {
    std::set<uint32_t> accept_voters;
    std::set<uint32_t> reject_voters;
  };
  VoteBox votes_;
  Block pending_proposal_;
  bool proposal_valid_ = false;

  /// A proposal copy delivered to a validator during the drain, in
  /// delivery order (a duplicated proposal is delivered more than once).
  struct ProposalDelivery {
    uint32_t validator = 0;
    net::NodeId sender = 0;
    uint64_t delivered_at_us = 0;
    Bytes payload;
  };
  std::vector<ProposalDelivery> deliveries_;
};

}  // namespace bcfl::chain
