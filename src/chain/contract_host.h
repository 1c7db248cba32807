#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/contract.h"
#include "chain/sig_cache.h"
#include "chain/state.h"
#include "chain/transaction.h"
#include "common/result.h"
#include "crypto/schnorr.h"

namespace bcfl::chain {

/// Outcome of executing one transaction.
struct TxReceipt {
  crypto::Digest tx_hash;
  bool success = false;
  std::string error;  ///< Status string when failed.
};

/// Deterministic smart-contract execution environment.
///
/// Dispatches transactions to registered contracts, enforcing signature
/// validity first. Verdicts are cached by tx id, which each tx carries
/// from when it was signed or decoded, so execution never re-hashes a
/// body. Failed transactions are recorded in receipts but do not mutate
/// state (execution runs in place under a `ContractState::Scope` that is
/// kept only on success), so a block containing a bad transaction still
/// yields the same post-state on every honest miner.
class ContractHost {
 public:
  explicit ContractHost(crypto::Schnorr scheme = crypto::Schnorr());

  /// Registers a contract; names must be unique.
  Status Register(std::shared_ptr<SmartContract> contract);

  bool HasContract(const std::string& name) const;

  /// Verifies + executes one transaction against `state`.
  Result<TxReceipt> ExecuteTransaction(const Transaction& tx,
                                       ContractState* state) const;

  /// Executes a full block body in order; returns one receipt per tx.
  Result<std::vector<TxReceipt>> ExecuteBlock(
      const std::vector<Transaction>& txs, ContractState* state) const;

  const crypto::Schnorr& scheme() const { return scheme_; }

  const SigVerifyCache& sig_cache() const { return sig_cache_; }

 private:
  /// Cache-first signature check keyed by the tx id; inserts on success
  /// (fail-closed).
  bool VerifyCached(const Transaction& tx) const;

  crypto::Schnorr scheme_;
  std::map<std::string, std::shared_ptr<SmartContract>> contracts_;
  /// Mutable: the host is shared across miners as a const pointer, and
  /// the cache is internally synchronised.
  mutable SigVerifyCache sig_cache_;
};

}  // namespace bcfl::chain
