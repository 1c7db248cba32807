#pragma once

#include <map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/dh.h"
#include "secureagg/participant.h"

namespace bcfl::secureagg {

/// Information the aggregator needs to remove masks that do not cancel by
/// themselves: self-mask seeds of *surviving* submitters (reconstructed
/// from their revealed shares) and DH private keys of *dropped* members
/// (reconstructed from threshold shares).
struct UnmaskingInfo {
  std::map<OwnerId, std::array<uint8_t, 32>> survivor_self_seeds;
  std::map<OwnerId, crypto::UInt256> dropped_private_keys;
};

/// Server-side (on-chain) half of secure aggregation.
///
/// Deterministic: given identical submissions every blockchain miner that
/// re-executes `SumGroup` obtains the identical ring vector, which is
/// what makes the aggregation verifiable by the consensus protocol.
class SecureAggregator {
 public:
  /// `public_keys` is the on-chain roster of broadcast DH public keys.
  SecureAggregator(crypto::GroupParams params,
                   std::map<OwnerId, crypto::UInt256> public_keys);

  /// Sums the masked submissions of `group_members` for `round`.
  ///
  /// Happy path (all members present, no self masks): pairwise masks
  /// cancel and the result is the plain ring sum. With self masks and/or
  /// dropped members, `unmask` must carry the corresponding seeds/keys;
  /// missing material is an error, never a silently wrong sum.
  Result<std::vector<uint64_t>> SumGroup(
      uint64_t round, const std::vector<OwnerId>& group_members,
      const std::map<OwnerId, std::vector<uint64_t>>& submissions,
      const UnmaskingInfo& unmask = {}, bool self_masks_in_use = false) const;

  /// Reconstructs a participant's 32-byte secret from threshold shares
  /// (helper used by the protocol driver and the contracts for both the
  /// self-seed and, via ToBytes, the DH key path).
  static Result<std::array<uint8_t, 32>> ReconstructSecret32(
      const std::vector<crypto::ShamirShare>& shares, size_t threshold,
      size_t roster_size);

  /// Batch companion of `ReconstructSecret32`: reconstructs one 32-byte
  /// secret per share-set in a single call. A recovery round reveals every
  /// missing owner's secret from the *same* surviving holder set, so the
  /// Lagrange basis is computed once for the whole batch and the per-set
  /// share verification/evaluation runs on `pool` (nullptr = serial).
  /// Output k corresponds to share_sets[k]; bit-identical to calling
  /// ReconstructSecret32 per set, for any pool size.
  static Result<std::vector<std::array<uint8_t, 32>>> ReconstructSecrets32(
      const std::vector<std::vector<crypto::ShamirShare>>& share_sets,
      size_t threshold, size_t roster_size, ThreadPool* pool = nullptr);

 private:
  crypto::GroupParams params_;
  std::map<OwnerId, crypto::UInt256> public_keys_;
};

}  // namespace bcfl::secureagg
