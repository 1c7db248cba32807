#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "secureagg/aggregator.h"
#include "secureagg/fixed_point.h"
#include "secureagg/participant.h"

namespace bcfl::secureagg {

/// Configuration of a secure-aggregation session.
struct SessionConfig {
  bool use_self_masks = true;
  /// Shamir threshold for recovery material; 0 = a strict majority
  /// (`crypto::ResolveThreshold`).
  size_t threshold = 0;
  int fixed_point_bits = 24;
  uint64_t seed = 1;
};

/// End-to-end facade wiring participants, key exchange, share
/// distribution and the aggregator — the whole Sect. IV-A-1 handshake in
/// one object. `BcflCoordinator` (src/core) performs the same steps
/// through blockchain transactions; this facade is the reference
/// implementation tests compare against, and the easiest entry point for
/// library users who want secure aggregation without the chain.
class SecureAggSession {
 public:
  /// Creates a session for owners 0..n-1 and performs the key exchange.
  static Result<SecureAggSession> Create(size_t num_owners,
                                         SessionConfig config = {});

  size_t num_owners() const { return participants_.size(); }
  const SessionConfig& config() const { return config_; }
  const FixedPointCodec& codec() const { return codec_; }

  /// Masks `update` on behalf of `owner` for the given round and group.
  Result<std::vector<uint64_t>> Submit(OwnerId owner, uint64_t round,
                                       const std::vector<OwnerId>& group,
                                       const std::vector<double>& update);

  /// Aggregates the group's masked submissions and returns the *mean* of
  /// the surviving members' updates. `dropped` members are recovered via
  /// their secret-shared DH keys (threshold shares must survive).
  Result<std::vector<double>> AggregateGroupMean(
      uint64_t round, const std::vector<OwnerId>& group,
      const std::map<OwnerId, std::vector<uint64_t>>& submissions,
      const std::set<OwnerId>& dropped = {});

  /// Direct access for advanced protocols and tests.
  SecureAggParticipant& participant(OwnerId id) { return *participants_[id]; }

 private:
  SecureAggSession(SessionConfig config, FixedPointCodec codec)
      : config_(config), codec_(codec) {}

  struct RevealJob {
    OwnerId id;
    bool dh_key;
  };

  /// Reconstructs the listed owners' 32-byte secrets from the distributed
  /// shares, one verified reveal (`RevealVerified`) per owner, simulating
  /// the share-reveal step of the protocol. Successful reconstructions
  /// are cached, so re-recovering the same owner (e.g. a retried round)
  /// neither redoes the Lagrange work nor double-counts the recovery
  /// metrics; the availability check still runs before the cache is
  /// consulted (fail-closed).
  Result<std::vector<std::array<uint8_t, 32>>> RevealSecrets(
      const std::vector<RevealJob>& jobs, const std::set<OwnerId>& dropped);

  SessionConfig config_;
  FixedPointCodec codec_;
  std::vector<std::unique_ptr<SecureAggParticipant>> participants_;
  /// recovery_shares_[i] = shares produced by owner i at setup.
  std::vector<RecoveryShares> recovery_shares_;
  std::unique_ptr<SecureAggregator> aggregator_;
  size_t threshold_ = 0;
  /// Counters resolved once at Create instead of via function-local
  /// statics in the aggregation path: no static-init guard or registry
  /// lock on the hot path, and the binding is per session, not pinned by
  /// whichever call ran first in the process.
  obs::Counter* dropouts_counter_ = nullptr;
  obs::Counter* recoveries_counter_ = nullptr;
  /// Cache of successful secret reconstructions, keyed by (owner, which
  /// secret); makes double recovery idempotent.
  std::map<std::pair<OwnerId, bool>, std::array<uint8_t, 32>> reveal_cache_;
  /// Owners already counted by `secureagg.dropouts` (unique, not per call).
  std::set<OwnerId> counted_dropouts_;
};

}  // namespace bcfl::secureagg
