#include "chain/miner.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::chain {

namespace {

/// Runs a block body in place on `state` under a `block_execute` span.
Status ExecuteInPlace(const ContractHost& host,
                      const std::vector<Transaction>& txs,
                      ContractState* state) {
  obs::ScopedSpan span(obs::Tracer::Global(), "block_execute", "chain");
  return host.ExecuteBlock(txs, state).status();
}

crypto::Digest TracedStateRoot(const ContractState& state) {
  obs::ScopedSpan span(obs::Tracer::Global(), "state_root", "chain");
  return state.StateRoot();
}

}  // namespace

Miner::Miner(uint32_t id, std::shared_ptr<const ContractHost> host)
    : id_(id), host_(std::move(host)) {}

Result<Block> Miner::ProposeBlock(uint64_t timestamp_us, size_t max_txs) {
  static auto& proposed =
      obs::MetricsRegistry::Global().GetCounter("chain.block.proposed");
  obs::ScopedSpan span(obs::Tracer::Global(), "block_build", "chain");
  proposed.Add();
  Block block;
  block.txs = mempool_.Peek(max_txs);
  block.header.height = chain_.Height() + 1;
  block.header.prev_hash = chain_.Tip().header.Hash();
  block.header.timestamp_us = timestamp_us;
  block.header.proposer = id_;
  block.header.merkle_root = block.ComputeMerkleRoot();

  // Trial execution in place; the scope always rolls it back. Its writes
  // are taken before the hook runs, and the hook still sees (and may
  // corrupt) the post-execution state.
  ContractState::Scope trial(&state_);
  BCFL_RETURN_IF_ERROR(ExecuteInPlace(*host_, block.txs, &state_));
  ContractState::WriteSet writes = trial.Writes();
  if (behavior_.tamper_state) {
    behavior_.tamper_state(&state_);
  }
  block.header.state_root = TracedStateRoot(state_);
  executed_ = Executed{block.header.Hash(), std::move(writes)};
  return block;
}

Result<bool> Miner::ValidateProposal(const Block& block) {
  static auto& accepted =
      obs::MetricsRegistry::Global().GetCounter("chain.proposal.accepted");
  static auto& rejected =
      obs::MetricsRegistry::Global().GetCounter("chain.proposal.rejected");
  obs::ScopedSpan span(obs::Tracer::Global(), "proposal_reexec", "chain");
  if (behavior_.always_reject) {
    rejected.Add();
    return false;
  }
  Status structural = Blockchain::Validate(block, chain_.Tip());
  if (!structural.ok()) {
    rejected.Add();
    return false;
  }

  // Re-execute the body on this miner's own state — the "verification
  // protocol" of Sect. III — and roll it back whatever the verdict.
  ContractState::Scope trial(&state_);
  if (!ExecuteInPlace(*host_, block.txs, &state_).ok()) {
    rejected.Add();
    return false;
  }
  const bool match = TracedStateRoot(state_) == block.header.state_root;
  (match ? accepted : rejected).Add();
  if (match) executed_ = Executed{block.header.Hash(), trial.Writes()};
  return match;
}

Status Miner::CommitBlock(const Block& block) {
  static auto& commit_us =
      obs::MetricsRegistry::Global().GetHistogram("chain.commit_us");
  obs::ScopedLatency latency(commit_us);
  std::optional<Executed> executed = std::exchange(executed_, std::nullopt);
  // Applied in place; kept only once the root matches and the block is
  // on the chain, rolled back on every earlier return. The kept writes
  // stand in for an execution only of this block on the parent they were
  // computed on; catch-up, replay and any other block execute in full.
  ContractState::Scope apply(&state_);
  if (executed && executed->block_hash == block.header.Hash() &&
      block.header.prev_hash == chain_.Tip().header.Hash()) {
    state_.Apply(std::move(executed->writes));
  } else {
    BCFL_RETURN_IF_ERROR(ExecuteInPlace(*host_, block.txs, &state_));
  }
  if (TracedStateRoot(state_) != block.header.state_root) {
    return Status::Corruption(
        "committed block does not re-execute to its state root");
  }
  BCFL_RETURN_IF_ERROR(chain_.Append(block));
  apply.Keep();
  mempool_.RemoveCommitted(block.txs);
  return Status::OK();
}

}  // namespace bcfl::chain
