#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "chain/blockchain.h"
#include "chain/contract_host.h"
#include "chain/mempool.h"
#include "common/result.h"

namespace bcfl::chain {

/// Hook applied by a *Byzantine* leader between executing a proposal and
/// publishing it: it may mutate the post-execution state (e.g. inflate
/// its own contribution record) and/or the block. Honest miners have no
/// behaviour installed.
struct MinerBehavior {
  /// Tampers with the leader's post-execution state before the state
  /// root is computed. Null = honest.
  std::function<void(ContractState*)> tamper_state;
  /// When true the miner votes reject regardless of validity (griefing).
  bool always_reject = false;
};

/// One blockchain miner: a chain replica, a contract-state replica and a
/// mempool, with the two consensus roles from Sect. III — proposing as
/// leader and re-executing/verifying as validator.
///
/// Each miner executes a block once: the proposal trial or the accepted
/// validation keeps its net writes, keyed by the block hash, and
/// `CommitBlock` of that same block on the same parent applies them
/// instead of executing again. `state()` still always equals the
/// committed chain: trials and validations roll back.
class Miner {
 public:
  Miner(uint32_t id, std::shared_ptr<const ContractHost> host);

  uint32_t id() const { return id_; }
  const Blockchain& chain() const { return chain_; }
  const ContractState& state() const { return state_; }
  Mempool& mempool() { return mempool_; }

  void set_behavior(MinerBehavior behavior) { behavior_ = std::move(behavior); }
  const MinerBehavior& behavior() const { return behavior_; }

  /// Leader role: executes pending transactions in place, assembles the
  /// next block and rolls the execution back (committing nothing), keeping
  /// its writes for `CommitBlock`. A Byzantine `tamper_state` hook
  /// corrupts the proposal here; its writes are rolled back and never
  /// kept, so a tampered root fails this miner's own commit too.
  Result<Block> ProposeBlock(uint64_t timestamp_us, size_t max_txs = 0);

  /// Validator role: structural checks plus full re-execution, rolled
  /// back afterwards; true iff the proposer's state root matches this
  /// miner's own re-execution (the verification protocol of Sect. III).
  /// An accepted block's writes are kept for `CommitBlock`.
  Result<bool> ValidateProposal(const Block& block);

  /// Applies a block agreed by consensus, appends it to the chain and
  /// evicts its transactions from the mempool. The writes kept by the
  /// last proposal or validation are applied when they belong to this
  /// block on the current tip; any other block is executed in full.
  /// Either way the result must hash to the block's state root, or the
  /// commit fails and leaves the replica untouched. Drops the kept writes.
  Status CommitBlock(const Block& block);

 private:
  uint32_t id_;
  std::shared_ptr<const ContractHost> host_;
  Blockchain chain_;
  ContractState state_;
  Mempool mempool_;
  MinerBehavior behavior_;
  /// Net writes of this miner's last proposal trial (taken before any
  /// tamper hook) or accepted validation, keyed by that block's hash.
  struct Executed {
    crypto::Digest block_hash{};
    ContractState::WriteSet writes;
  };
  std::optional<Executed> executed_;
};

}  // namespace bcfl::chain
