#pragma once

#include <functional>
#include <memory>

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
  /// next block and rolls the execution back (committing nothing). A
  /// Byzantine `tamper_state` hook corrupts the proposal here; its writes
  /// are rolled back too.
  Result<Block> ProposeBlock(uint64_t timestamp_us, size_t max_txs = 0);

  /// Validator role: structural checks plus full re-execution, rolled
  /// back afterwards; true iff the proposer's state root matches this
  /// miner's own re-execution (the verification protocol of Sect. III).
  Result<bool> ValidateProposal(const Block& block);

  /// Applies a block agreed by consensus: re-executes against the live
  /// state, appends to the chain and evicts its transactions from the
  /// mempool. Fails (leaving the replica untouched) if the block does
  /// not re-execute to its claimed state root.
  Status CommitBlock(const Block& block);

 private:
  uint32_t id_;
  std::shared_ptr<const ContractHost> host_;
  Blockchain chain_;
  ContractState state_;
  Mempool mempool_;
  MinerBehavior behavior_;
};

}  // namespace bcfl::chain
