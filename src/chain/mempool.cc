#include "chain/mempool.h"

#include "obs/metrics.h"

namespace bcfl::chain {

namespace {

std::pair<std::string, uint64_t> SenderNonceOf(const Transaction& tx) {
  Bytes sender = tx.sender().ToBytes();
  return {std::string(sender.begin(), sender.end()), tx.nonce()};
}

}  // namespace

std::string Mempool::KeyOf(const Transaction& tx) {
  const crypto::Digest& digest = tx.Hash();
  return std::string(digest.begin(), digest.end());
}

Status Mempool::Add(Transaction tx) {
  static auto& admitted =
      obs::MetricsRegistry::Global().GetCounter("chain.mempool.admitted");
  static auto& duplicates = obs::MetricsRegistry::Global().GetCounter(
      "chain.mempool.rejected_duplicate");
  static auto& nonce_replays = obs::MetricsRegistry::Global().GetCounter(
      "chain.mempool.rejected_nonce");
  std::string key = KeyOf(tx);
  if (seen_.count(key) > 0) {
    duplicates.Add();
    return Status::AlreadyExists("transaction already in mempool");
  }
  // A different signature over the same (sender, nonce) is a replay
  // with a fresh Schnorr nonce: same hash-set miss, same block slot.
  // Reject it at admission rather than letting it ride to the contract.
  if (!seen_sender_nonce_.insert(SenderNonceOf(tx)).second) {
    nonce_replays.Add();
    return Status::AlreadyExists("sender nonce already admitted");
  }
  seen_.insert(std::move(key));
  admitted.Add();
  pending_.push_back(std::move(tx));
  return Status::OK();
}

void Mempool::NoteCommitted(const Transaction& tx) {
  seen_.insert(KeyOf(tx));
  seen_sender_nonce_.insert(SenderNonceOf(tx));
}

std::vector<Transaction> Mempool::Peek(size_t max_count) const {
  size_t count = max_count == 0 ? pending_.size()
                                : std::min(max_count, pending_.size());
  return std::vector<Transaction>(pending_.begin(),
                                  pending_.begin() + static_cast<long>(count));
}

void Mempool::RemoveCommitted(const std::vector<Transaction>& txs) {
  std::set<crypto::Digest> committed;
  for (const Transaction& tx : txs) committed.insert(tx.Hash());
  std::deque<Transaction> kept;
  for (Transaction& tx : pending_) {
    if (committed.count(tx.Hash()) == 0) kept.push_back(std::move(tx));
  }
  pending_ = std::move(kept);
}

}  // namespace bcfl::chain
