#pragma once

#include <map>
#include <vector>

#include "common/result.h"
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

  /// Checks a revealed DH private key against `owner`'s public key on
  /// the roster: g^x must equal it. g^x goes through the group's shared
  /// fixed-base table, as at key generation.
  Status VerifyRevealedKey(OwnerId owner,
                           const crypto::UInt256& private_key) const;

  /// Strips `owner`'s pairwise masks from its own masked submission with
  /// the owner's private key: the inverse of
  /// `SecureAggParticipant::MaskUpdateInto` for a participant without a
  /// self mask. `group_members` is the roster the owner masked against
  /// and must contain it.
  Result<std::vector<uint64_t>> UnmaskOwner(
      uint64_t round, OwnerId owner, const crypto::UInt256& private_key,
      const std::vector<OwnerId>& group_members,
      std::vector<uint64_t> masked) const;

 private:
  /// The pair key `owner` shares with `peer`, from `owner`'s private key
  /// and `peer`'s public key on the roster.
  Result<std::array<uint8_t, 32>> PairKeyFrom(
      const crypto::UInt256& private_key, OwnerId owner, OwnerId peer) const;

  crypto::DiffieHellman dh_;
  std::map<OwnerId, crypto::UInt256> public_keys_;
};

}  // namespace bcfl::secureagg
