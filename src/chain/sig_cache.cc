#include "chain/sig_cache.h"

#include "obs/metrics.h"

namespace bcfl::chain {

namespace {

std::string DigestKey(const crypto::Digest& d) {
  return std::string(d.begin(), d.end());
}

}  // namespace

bool SigVerifyCache::Contains(const crypto::Digest& tx_hash) const {
  static auto& hits =
      obs::MetricsRegistry::Global().GetCounter("chain.sigcache.hits");
  static auto& misses =
      obs::MetricsRegistry::Global().GetCounter("chain.sigcache.misses");
  Shard& shard = ShardFor(tx_hash);
  bool found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    found = shard.entries.count(DigestKey(tx_hash)) > 0;
  }
  (found ? hits : misses).Add();
  return found;
}

void SigVerifyCache::Insert(const crypto::Digest& tx_hash) {
  Shard& shard = ShardFor(tx_hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.size() >= kMaxPerShard) {
    // Fail-closed overflow policy: dropping entries only costs a
    // re-verification on the next sighting.
    shard.entries.clear();
  }
  shard.entries.insert(DigestKey(tx_hash));
}

size_t SigVerifyCache::Size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

void SigVerifyCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
  }
}

}  // namespace bcfl::chain
