#pragma once

#include <string>

#include "chain/state.h"
#include "chain/transaction.h"
#include "common/status.h"

namespace bcfl::chain {

/// Smart-contract interface.
///
/// A contract is pure protocol logic: `Execute` reads the transaction and
/// mutates only `state`. It MUST be deterministic — no wall clock, no
/// unseeded randomness, no out-of-state I/O — because every miner
/// re-executes proposed transactions and consensus accepts a block only
/// when the resulting state roots agree (Sect. III of the paper).
/// Contract objects themselves are immutable after construction and can
/// be shared across miners; per-chain data lives exclusively in
/// `ContractState`.
class SmartContract {
 public:
  virtual ~SmartContract() = default;

  /// Routing name; transactions with `tx.contract() == name()` dispatch
  /// here.
  virtual std::string name() const = 0;

  /// Applies `tx` to `state`. Errors abort the transaction (the host
  /// rolls back any partial writes through a `ContractState::Scope`).
  virtual Status Execute(const Transaction& tx, ContractState* state) = 0;
};

}  // namespace bcfl::chain
