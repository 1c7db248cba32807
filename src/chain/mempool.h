#pragma once

#include <deque>
#include <set>
#include <string>
#include <utility>

#include "chain/transaction.h"
#include "common/result.h"

namespace bcfl::chain {

/// FIFO pool of pending transactions with duplicate suppression.
///
/// Leaders draw block bodies from here. The pool remembers every hash it
/// has ever admitted so a re-gossiped transaction is not proposed twice,
/// and every (sender, nonce) pair so a re-signed replay cannot occupy a
/// second block slot before contract-level replay checks fire. Every
/// lookup uses the tx id each transaction carries, so admission and
/// eviction never re-hash a payload.
class Mempool {
 public:
  Mempool() = default;

  /// Admits `tx`; AlreadyExists for duplicates (by hash, or by an
  /// already-admitted (sender, nonce) pair).
  Status Add(Transaction tx);

  /// Copies up to `max_count` pending transactions without removing them
  /// (0 = all). Leaders peek so that a rejected proposal leaves the pool
  /// intact for the next leader.
  std::vector<Transaction> Peek(size_t max_count = 0) const;

  /// Drops any pending transactions that appear in `txs` — called when a
  /// block commits so replicas shed already-included entries.
  void RemoveCommitted(const std::vector<Transaction>& txs);

  /// Records an already-committed transaction in the duplicate-suppression
  /// sets without admitting it. Used when a replica replays settled blocks
  /// from the durable log on restart, so a post-restart re-gossip of a
  /// historical transaction (or a re-signed replay of its nonce) is
  /// rejected exactly as it was before the crash.
  void NoteCommitted(const Transaction& tx);

  size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

 private:
  static std::string KeyOf(const Transaction& tx);

  std::deque<Transaction> pending_;
  std::set<std::string> seen_;
  std::set<std::pair<std::string, uint64_t>> seen_sender_nonce_;
};

}  // namespace bcfl::chain
