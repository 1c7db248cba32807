#include "chain/contract_host.h"

namespace bcfl::chain {

ContractHost::ContractHost(crypto::Schnorr scheme)
    : scheme_(std::move(scheme)) {}

Status ContractHost::Register(std::shared_ptr<SmartContract> contract) {
  if (!contract) {
    return Status::InvalidArgument("null contract");
  }
  auto [it, inserted] = contracts_.emplace(contract->name(), contract);
  if (!inserted) {
    return Status::AlreadyExists("contract already registered: " +
                                 contract->name());
  }
  return Status::OK();
}

bool ContractHost::HasContract(const std::string& name) const {
  return contracts_.count(name) > 0;
}

bool ContractHost::VerifyCached(const Transaction& tx) const {
  if (sig_cache_.Contains(tx.Hash())) return true;
  if (!tx.VerifySignature(scheme_)) return false;
  sig_cache_.Insert(tx.Hash());
  return true;
}

Result<TxReceipt> ContractHost::ExecuteTransaction(const Transaction& tx,
                                                   ContractState* state) const {
  TxReceipt receipt;
  receipt.tx_hash = tx.Hash();

  if (!VerifyCached(tx)) {
    receipt.success = false;
    receipt.error = "invalid signature";
    return receipt;
  }
  auto it = contracts_.find(tx.contract());
  if (it == contracts_.end()) {
    receipt.success = false;
    receipt.error = "unknown contract: " + tx.contract();
    return receipt;
  }

  // Execute in place under an undo scope, kept only on success, so a
  // failed tx cannot leave partial writes behind.
  ContractState::Scope scope(state);
  Status status = it->second->Execute(tx, state);
  if (status.ok()) {
    scope.Keep();
    receipt.success = true;
  } else {
    receipt.success = false;
    receipt.error = status.ToString();
  }
  return receipt;
}

Result<std::vector<TxReceipt>> ContractHost::ExecuteBlock(
    const std::vector<Transaction>& txs, ContractState* state) const {
  std::vector<TxReceipt> receipts;
  receipts.reserve(txs.size());
  for (const Transaction& tx : txs) {
    BCFL_ASSIGN_OR_RETURN(TxReceipt receipt, ExecuteTransaction(tx, state));
    receipts.push_back(std::move(receipt));
  }
  return receipts;
}

}  // namespace bcfl::chain
