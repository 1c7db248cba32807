#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_set>

#include "crypto/sha256.h"

namespace bcfl::chain {

/// Thread-safe sharded cache of *successful* signature verifications,
/// keyed by transaction hash (SHA-256 over the canonical signing bytes
/// plus the signature, so the key commits to contract, method, payload,
/// sender, nonce AND the signature itself). The key is
/// `Transaction::Hash()`, computed once when the immutable tx is built,
/// so any tx that differs in a single byte carries a different key.
///
/// Honest-majority consensus re-executes every block on every miner; the
/// miners share one ContractHost, so one cache turns N identical modexp
/// verifications per transaction into one.
///
/// Fail-closed semantics: only positive verdicts are stored. A failed
/// verification is never cached (each replica re-runs the full check),
/// and an overflowing shard is simply cleared — a lost entry can only
/// cause re-verification, never a forged accept. A hash hit implies the
/// exact same (signing bytes, signature) pair previously passed the full
/// Schnorr equation under this host's scheme.
class SigVerifyCache {
 public:
  /// True when `tx_hash` was previously recorded as verified.
  /// Bumps the chain.sigcache.hits / chain.sigcache.misses counters.
  bool Contains(const crypto::Digest& tx_hash) const;

  /// Records a successful verification of `tx_hash`.
  void Insert(const crypto::Digest& tx_hash);

  /// Entry count across shards (approximate under concurrent writers).
  size_t Size() const;

  void Clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_set<std::string> entries;
  };
  static constexpr size_t kShards = 16;
  /// Per-shard cap (~1M entries total). On overflow the shard is
  /// cleared rather than evicted LRU-style: correctness never depends
  /// on an entry being present.
  static constexpr size_t kMaxPerShard = 1 << 16;

  Shard& ShardFor(const crypto::Digest& tx_hash) const {
    return shards_[tx_hash[0] % kShards];
  }

  mutable std::array<Shard, kShards> shards_;
};

}  // namespace bcfl::chain
