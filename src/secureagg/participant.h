#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/dh.h"
#include "crypto/shamir.h"

namespace bcfl::secureagg {

/// Identifier of a secure-aggregation participant (same space as
/// fl::OwnerId).
using OwnerId = uint32_t;

/// Secret-shared recovery material produced at setup (Bonawitz et al.):
/// shares of the participant's DH private key (to reconstruct a *dropped*
/// user's pairwise masks) and of its self-mask seed (to remove a
/// *surviving* user's self mask). Share k is addressed to the k-th
/// participant of the session roster.
struct RecoveryShares {
  std::vector<crypto::ShamirShare> dh_private_shares;
  std::vector<crypto::ShamirShare> self_seed_shares;
  /// Feldman commitments to the two sharing polynomials (PR 9). Published
  /// with the setup transaction so a revealed share can be verified — and
  /// a forged one attributed to its holder — by anyone.
  crypto::VssCommitment dh_commitment;
  crypto::VssCommitment self_seed_commitment;
};

/// Reusable buffers for `MaskUpdateInto`: one pairwise-mask expansion,
/// reused for every peer, and the self-mask expansion. After the first
/// round both are at capacity, so masking allocates nothing. One scratch
/// per owner — not shareable across concurrent calls.
struct MaskScratch {
  std::vector<uint64_t> mask;
  std::vector<uint64_t> self_mask;
};

/// Client-side state of the secure-aggregation protocol.
///
/// Lifecycle per the paper's Sect. IV-A-1:
///  1. Construct (generates the DH key pair) and broadcast `public_key()`.
///  2. `RegisterPeer` every other owner's public key — this derives the
///     pairwise mask keys PRNG will expand each round.
///  3. Each round, `MaskUpdate` turns a fixed-point-encoded update into a
///     masked submission for the given group.
///
/// Double masking: in addition to the paper's pairwise masks, each
/// participant adds a private self mask b_i^r (Bonawitz et al.) so that
/// recovering a dropped user's pairwise keys never exposes a survivor's
/// plain update. Self masks are removed by the aggregator from
/// secret-shared seeds. Set `use_self_mask = false` for the paper's
/// plain pairwise scheme (safe under its all-owners-always-online
/// assumption).
class SecureAggParticipant {
 public:
  SecureAggParticipant(OwnerId id, const crypto::DiffieHellman& dh,
                       Xoshiro256* rng, bool use_self_mask = true);

  OwnerId id() const { return id_; }
  const crypto::UInt256& public_key() const { return key_pair_.public_key; }
  bool use_self_mask() const { return use_self_mask_; }

  /// Derives and caches the pairwise mask key with `peer`. Fails on a
  /// self-registration or an out-of-group public key.
  Status RegisterPeer(OwnerId peer, const crypto::UInt256& peer_public);

  /// True once `peer`'s key material is registered.
  bool HasPeer(OwnerId peer) const;

  /// Masks `encoded` (ring elements) for `round`, cancelling pairwise
  /// with every *other* member of `group_members` (which must contain
  /// this participant and only registered peers).
  Result<std::vector<uint64_t>> MaskUpdate(
      uint64_t round, const std::vector<OwnerId>& group_members,
      const std::vector<uint64_t>& encoded) const;

  /// MaskUpdate writing through caller-owned scratch: the masked vector
  /// lands in `*out` and all intermediate buffers live in `*scratch`
  /// (resized on first use, reused afterwards). Bit-identical to
  /// MaskUpdate. On error `*out` is left untouched, so a failed call never
  /// leaves the unmasked update in the caller's buffer. Const + per-owner
  /// scratch means distinct owners can mask concurrently from pool
  /// workers: this object's only mutable state under the call is
  /// `*scratch`/`*out`, and `pair_keys_` is read-only after registration.
  Status MaskUpdateInto(uint64_t round,
                        const std::vector<OwnerId>& group_members,
                        const std::vector<uint64_t>& encoded,
                        MaskScratch* scratch,
                        std::vector<uint64_t>* out) const;

  /// Splits the recovery secrets into `roster_size` shares with the given
  /// threshold. Called once at setup; shares are distributed to the
  /// session roster in order.
  Result<RecoveryShares> ShareSecrets(size_t threshold, size_t roster_size,
                                      Xoshiro256* rng) const;

  /// The 32-byte self-mask seed (exposed so the protocol driver can model
  /// the share-reveal step; a real client reveals only shares).
  const std::array<uint8_t, 32>& self_seed() const { return self_seed_; }
  /// The DH private key (same caveat as `self_seed`).
  const crypto::UInt256& private_key() const { return key_pair_.private_key; }

  /// The derived pairwise key with `peer`, for tests and recovery checks.
  Result<std::array<uint8_t, 32>> PairKey(OwnerId peer) const;

 private:
  OwnerId id_;
  crypto::DiffieHellman dh_;
  crypto::DhKeyPair key_pair_;
  std::array<uint8_t, 32> self_seed_;
  bool use_self_mask_;
  std::map<OwnerId, std::array<uint8_t, 32>> pair_keys_;
};

/// Derives the pairwise mask key both endpoints agree on: the label binds
/// the unordered pair {a, b} so either side derives the same 32 bytes.
std::array<uint8_t, 32> DerivePairKey(const crypto::UInt256& shared,
                                      OwnerId a, OwnerId b);

/// Expands the pair mask of `pair_key` for `round` into `*scratch` and
/// folds it into `*vec` with the sign `owner`'s submission gives it
/// against `peer`: the lower id of the pair adds the mask and the higher
/// subtracts it, so the pair cancels in a group sum. `cancel` folds the
/// opposite sign, which removes the mask again. Masking and both
/// unmasking paths (`SecureAggregator::SumGroup` and `UnmaskOwner`) go
/// through this one sign rule.
void FoldPairMask(const std::array<uint8_t, 32>& pair_key, OwnerId owner,
                  OwnerId peer, uint64_t round, bool cancel,
                  std::vector<uint64_t>* scratch, std::vector<uint64_t>* vec);

}  // namespace bcfl::secureagg
