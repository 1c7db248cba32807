#include "chain/consensus.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::chain {

namespace {

constexpr uint8_t kMsgProposal = 0;
constexpr uint8_t kMsgVote = 1;

Bytes EncodeProposal(const Block& block) {
  ByteWriter writer;
  writer.WriteU8(kMsgProposal);
  writer.WriteBytes(block.Serialize());
  return writer.Take();
}

Bytes EncodeVote(uint64_t height, const crypto::Digest& hash, bool accept,
                 uint32_t voter) {
  ByteWriter writer;
  writer.WriteU8(kMsgVote);
  writer.WriteU64(height);
  writer.WriteRaw(hash.data(), hash.size());
  writer.WriteU8(accept ? 1 : 0);
  writer.WriteU32(voter);
  return writer.Take();
}

}  // namespace

ConsensusEngine::ConsensusEngine(size_t num_miners,
                                 std::shared_ptr<const ContractHost> host,
                                 ConsensusConfig config, ThreadPool* pool)
    : host_(std::move(host)),
      config_(config),
      pool_(pool),
      network_(config.network) {
  std::vector<uint32_t> ids;
  ids.reserve(num_miners);
  miners_.reserve(num_miners);
  for (size_t i = 0; i < num_miners; ++i) {
    uint32_t id = static_cast<uint32_t>(i);
    ids.push_back(id);
    miners_.push_back(std::make_unique<Miner>(id, host_));
    // Handler: validators record proposals (`AnswerProposals` validates
    // and votes after the drain); the leader's handler tallies the votes
    // of the in-flight attempt.
    Status st = network_.RegisterNode(id, [this, id](const net::Message& msg) {
      ByteReader reader(msg.payload);
      auto type = reader.ReadU8();
      if (!type.ok()) return;
      if (*type == kMsgProposal) {
        deliveries_.push_back({id, msg.from, msg.deliver_at_us, msg.payload});
      } else if (*type == kMsgVote) {
        auto height = reader.ReadU64();
        auto hash_raw = reader.ReadRaw(32);
        auto accept = reader.ReadU8();
        auto voter = reader.ReadU32();
        if (!height.ok() || !hash_raw.ok() || !accept.ok() || !voter.ok()) {
          return;
        }
        if (!proposal_valid_) return;
        crypto::Digest hash;
        std::copy(hash_raw->begin(), hash_raw->end(), hash.begin());
        if (*height != pending_proposal_.header.height ||
            hash != pending_proposal_.header.Hash()) {
          return;  // Stale vote from an earlier attempt.
        }
        // Deduplicate by voter: a duplicated message must not count a
        // miner twice. Votes claiming this node's own id are dropped too
        // — the proposer's accept is added implicitly at tally time.
        if (*voter >= miners_.size() || *voter == id) return;
        if (votes_.accept_voters.count(*voter) > 0 ||
            votes_.reject_voters.count(*voter) > 0) {
          return;
        }
        (*accept != 0 ? votes_.accept_voters : votes_.reject_voters)
            .insert(*voter);
      }
    });
    (void)st;
  }
  schedule_ = std::make_unique<LeaderSchedule>(ids, config_.leader_seed);
}

Status ConsensusEngine::SubmitTransaction(const Transaction& tx) {
  for (auto& miner : miners_) {
    // Offline miners never hear the gossip; they pick the tx's block up
    // later through catch-up instead of the mempool.
    if (injector_ != nullptr && injector_->MinerOffline(miner->id())) continue;
    Status st = miner->mempool().Add(tx);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
  }
  return Status::OK();
}

void ConsensusEngine::set_fault_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (injector_ != nullptr) {
    injector_->InstallOn(&network_);
  } else {
    network_.set_fault_filter(nullptr);
  }
}

size_t ConsensusEngine::CanonicalMinerIndex() const {
  if (injector_ == nullptr) return 0;
  size_t best = 0;
  uint64_t best_height = 0;
  bool found = false;
  for (size_t i = 0; i < miners_.size(); ++i) {
    uint32_t id = miners_[i]->id();
    if (injector_->MinerOffline(id)) continue;
    // Count the online miners this one can reach (itself included); only
    // a strict-majority component can have committed the newest block.
    size_t reachable = 0;
    for (size_t j = 0; j < miners_.size(); ++j) {
      uint32_t other = miners_[j]->id();
      if (injector_->MinerOffline(other)) continue;
      if (injector_->MinersReachable(id, other)) ++reachable;
    }
    if (reachable * 2 <= miners_.size()) continue;
    uint64_t height = miners_[i]->chain().Height();
    if (!found || height > best_height) {
      best = i;
      best_height = height;
      found = true;
    }
  }
  // Validated plans always keep a majority component online; fall back to
  // miner 0 defensively if a hand-written plan does not.
  return found ? best : 0;
}

bool ConsensusEngine::MinerParticipating(uint32_t id) const {
  if (injector_ == nullptr) return true;
  if (injector_->MinerOffline(id)) return false;
  uint32_t canonical = miners_[CanonicalMinerIndex()]->id();
  return injector_->MinersReachable(canonical, id);
}

size_t ConsensusEngine::CatchUpLaggards() {
  if (injector_ == nullptr) return 0;
  static auto& catchups =
      obs::MetricsRegistry::Global().GetCounter("chain.consensus.catchups");
  const Miner& canonical = *miners_[CanonicalMinerIndex()];
  uint64_t tip = canonical.chain().Height();
  size_t replayed = 0;
  for (auto& miner : miners_) {
    if (miner.get() == &canonical) continue;
    if (!MinerParticipating(miner->id())) continue;
    uint64_t behind = miner->chain().Height();
    if (behind >= tip) continue;
    for (uint64_t h = behind + 1; h <= tip; ++h) {
      auto block = canonical.chain().GetBlock(h);
      if (!block.ok()) break;
      Status st = miner->CommitBlock(*block);
      if (!st.ok()) {
        BCFL_LOG_WARN() << "catch-up of miner " << miner->id() << " at height "
                        << h << " failed: " << st.ToString();
        break;
      }
      ++replayed;
    }
    catchups.Add();
    injector_->RecordExecuted(
        injector_->current_round(),
        "miner " + std::to_string(miner->id()) + " caught up from height " +
            std::to_string(behind) + " to " + std::to_string(tip));
  }
  return replayed;
}

Result<CommitResult> ConsensusEngine::TryPropose(uint64_t height,
                                                 uint32_t retries) {
  BCFL_ASSIGN_OR_RETURN(uint32_t leader_id,
                        schedule_->LeaderFor(height, retries));
  Miner& leader = *miners_[leader_id];

  // A crashed, partitioned-away or stale-chained leader cannot land a
  // majority proposal: time out on the simulated clock and hand the view
  // to the next leader in the rotation.
  if (injector_ != nullptr &&
      (!MinerParticipating(leader_id) ||
       leader.chain().Height() + 1 != height)) {
    static auto& view_changes = obs::MetricsRegistry::Global().GetCounter(
        "chain.consensus.view_changes");
    view_changes.Add();
    network_.AdvanceClock(kViewChangeTimeoutUs);
    injector_->RecordExecuted(
        injector_->current_round(),
        "view change past leader " + std::to_string(leader_id) +
            " at height " + std::to_string(height));
    CommitResult timed_out;
    timed_out.leader = leader_id;
    timed_out.retries_used = retries;
    timed_out.height = height;
    return timed_out;
  }

  BCFL_ASSIGN_OR_RETURN(
      Block proposal,
      leader.ProposeBlock(network_.clock().NowMicros() + 1,
                          config_.max_txs_per_block));

  // Arm the vote box, broadcast, and drain the proposals; validators
  // validate after the drain and their votes cross a second drain.
  votes_ = VoteBox{};
  pending_proposal_ = proposal;
  proposal_valid_ = true;
  BCFL_RETURN_IF_ERROR(network_.Broadcast(leader_id, EncodeProposal(proposal)));
  network_.DeliverAll();
  AnswerProposals();
  network_.DeliverAll();
  proposal_valid_ = false;

  CommitResult result;
  result.leader = leader_id;
  result.retries_used = retries;
  result.height = height;
  result.block_hash = proposal.header.Hash();
  result.num_txs = proposal.txs.size();
  // Distinct voters only; the proposer counts as an implicit accept.
  result.accept_votes = votes_.accept_voters.size() + 1;
  result.reject_votes = votes_.reject_voters.size();

  // Strict majority of all miners must accept.
  result.committed = result.accept_votes * 2 > miners_.size();
  if (result.committed) {
    static auto& committed_blocks =
        obs::MetricsRegistry::Global().GetCounter("chain.block.committed");
    static auto& committed_txs =
        obs::MetricsRegistry::Global().GetCounter("chain.tx.committed");
    committed_blocks.Add();
    committed_txs.Add(result.num_txs);
    for (auto& miner : miners_) {
      // Offline or partitioned-away replicas missed the proposal; they
      // re-join through catch-up once reachable again.
      if (injector_ != nullptr &&
          injector_->MinerUnavailable(leader_id, miner->id())) {
        continue;
      }
      Status st = miner->CommitBlock(proposal);
      if (!st.ok()) {
        // A replica refusing a majority-accepted block means the leader
        // published an unexecutable proposal — surface loudly.
        return st.WithContext("replica " + std::to_string(miner->id()) +
                              " failed to commit");
      }
    }
    if (commit_sink_) {
      // Durability before acknowledgement: if the block cannot be made
      // durable (log append/fsync failed) the commit fails closed.
      BCFL_RETURN_IF_ERROR(
          commit_sink_(proposal)
              .WithContext("commit sink at height " +
                           std::to_string(proposal.header.height)));
    }
  }
  return result;
}

void ConsensusEngine::AnswerProposals() {
  const std::vector<ProposalDelivery> deliveries =
      std::exchange(deliveries_, {});
  // Each validator decodes and re-executes the proposal once, however
  // many copies reached it. A task writes only its validator's verdict
  // and miner; the contract host and its verification cache are shared
  // and thread-safe.
  std::vector<size_t> first_copy;
  std::vector<bool> seen(miners_.size(), false);
  for (size_t i = 0; i < deliveries.size(); ++i) {
    if (seen[deliveries[i].validator]) continue;
    seen[deliveries[i].validator] = true;
    first_copy.push_back(i);
  }
  struct Verdict {
    bool decoded = false;
    bool accept = false;
    uint64_t height = 0;
    crypto::Digest hash{};
  };
  std::vector<Verdict> verdicts(miners_.size());
  auto validate = [&](size_t k) {
    const ProposalDelivery& copy = deliveries[first_copy[k]];
    ByteReader reader(copy.payload);
    if (!reader.ReadU8().ok()) return;
    auto block_bytes = reader.ReadBytes();
    if (!block_bytes.ok()) return;
    auto block = Block::Deserialize(*block_bytes);
    if (!block.ok()) return;
    auto verdict = miners_[copy.validator]->ValidateProposal(*block);
    verdicts[copy.validator] = {true, verdict.ok() && *verdict,
                                block->header.height, block->header.Hash()};
  };
  if (pool_ != nullptr && first_copy.size() > 1) {
    pool_->ParallelFor(first_copy.size(), validate, /*grain=*/1);
  } else {
    for (size_t k = 0; k < first_copy.size(); ++k) validate(k);
  }

  // One vote per delivered copy, in delivery order, sent at the copy's
  // delivery time: the same latency draws, sequence numbers and fault
  // decisions as a vote sent from inside the drain.
  for (const ProposalDelivery& copy : deliveries) {
    const Verdict& verdict = verdicts[copy.validator];
    if (!verdict.decoded) continue;
    (void)network_.Send(copy.validator, copy.sender,
                        EncodeVote(verdict.height, verdict.hash,
                                   verdict.accept, copy.validator),
                        copy.delivered_at_us);
  }
}

Status ConsensusEngine::ReplayCommittedBlock(
    const Block& block, const std::map<uint32_t, uint64_t>& miner_heights) {
  for (auto& miner : miners_) {
    auto it = miner_heights.find(miner->id());
    const uint64_t target =
        it == miner_heights.end() ? UINT64_MAX : it->second;
    if (block.header.height > target) continue;  // Was lagging at checkpoint.
    if (miner->chain().Height() >= block.header.height) continue;
    BCFL_RETURN_IF_ERROR(
        miner->CommitBlock(block).WithContext(
            "replaying height " + std::to_string(block.header.height) +
            " into miner " + std::to_string(miner->id())));
    for (const Transaction& tx : block.txs) {
      miner->mempool().NoteCommitted(tx);
    }
  }
  return Status::OK();
}

std::map<uint32_t, uint64_t> ConsensusEngine::MinerHeights() const {
  std::map<uint32_t, uint64_t> heights;
  for (const auto& miner : miners_) {
    heights[miner->id()] = miner->chain().Height();
  }
  return heights;
}

Result<CommitResult> ConsensusEngine::RunRound() {
  static auto& rounds =
      obs::MetricsRegistry::Global().GetCounter("chain.consensus.rounds");
  static auto& retries_total =
      obs::MetricsRegistry::Global().GetCounter("chain.consensus.retries");
  obs::ScopedSpan span(obs::Tracer::Global(), "block_commit", "chain");
  rounds.Add();
  CatchUpLaggards();
  uint64_t height = CanonicalChain().Height() + 1;
  CommitResult last;
  for (uint32_t retry = 0; retry <= config_.max_retries; ++retry) {
    BCFL_ASSIGN_OR_RETURN(last, TryPropose(height, retry));
    if (last.committed) return last;
    retries_total.Add();
    BCFL_LOG_INFO() << "proposal at height " << height << " by miner "
                    << last.leader << " rejected (" << last.reject_votes
                    << " reject votes); rotating leader";
  }
  return last;  // committed == false after exhausting retries.
}

Result<std::vector<CommitResult>> ConsensusEngine::RunUntilDrained(
    size_t max_rounds) {
  std::vector<CommitResult> results;
  for (size_t i = 0; i < max_rounds; ++i) {
    bool any_pending = false;
    for (auto& miner : miners_) {
      // Stale txs stranded in an unreachable replica's mempool cannot be
      // proposed and must not keep the drain spinning.
      if (!MinerParticipating(miner->id())) continue;
      if (!miner->mempool().empty()) {
        any_pending = true;
        break;
      }
    }
    if (!any_pending) break;
    BCFL_ASSIGN_OR_RETURN(CommitResult result, RunRound());
    results.push_back(result);
    if (!result.committed) break;  // No progress possible.
  }
  return results;
}

}  // namespace bcfl::chain
