#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/uint256.h"

namespace bcfl::core {

/// Everything the data owners agree on at the off-chain setup stage
/// (Sect. IV-B): FL parameters, secure-aggregation parameters and
/// contribution-evaluation parameters. The setup transaction publishes
/// this structure to the blockchain, after which every miner can derive
/// groupings, verify submissions and evaluate contributions.
struct SetupParams {
  uint32_t num_owners = 9;
  uint32_t rounds = 10;        ///< R, total FL rounds.
  uint32_t num_groups = 3;     ///< m, GroupSV resolution knob.
  uint64_t seed_e = 7;         ///< Permutation seed e.
  uint32_t fixed_point_bits = 24;
  uint32_t weight_rows = 65;   ///< Model shape: (features + 1).
  uint32_t weight_cols = 10;   ///< Classes.

  /// Shamir recovery threshold the owners agreed on; 0 = a strict
  /// majority (`crypto::ResolveThreshold`). Published so every miner can
  /// verify revealed shares against the VSS commitments with the right
  /// polynomial degree.
  uint32_t shamir_threshold = 0;
  /// L2 norm gate on decoded group aggregates (PR 9): a group model whose
  /// norm exceeds the bound is flagged instead of evaluated, pending an
  /// audit + slash. 0 disables the gate.
  double update_norm_bound = 0.0;

  /// Broadcast key material, indexed by owner id.
  std::vector<crypto::UInt256> schnorr_public_keys;
  std::vector<crypto::UInt256> dh_public_keys;
  /// Per-owner serialized `crypto::VssCommitment` to the owner's DH-key
  /// sharing polynomial (PR 9). Published with the setup transaction so
  /// every miner can re-verify a revealed share — and convict the holder
  /// of a forged one. Empty = VSS checks off (pre-PR-9 behavior).
  std::vector<Bytes> vss_commitments;

  Bytes Serialize() const;
  static Result<SetupParams> Deserialize(const Bytes& bytes);

  /// Sanity checks (key counts match num_owners, m <= n, etc.).
  Status Validate() const;

  // Rules every miner derives from the setup alone.

  /// InvalidArgument unless `owner` is on the roster and `round` is
  /// within the agreed horizon.
  Status CheckSlot(uint64_t round, uint32_t owner) const;
  /// True iff `key` is a registered owner's Schnorr public key.
  bool IsOwnerKey(const crypto::UInt256& key) const;
  /// The round's grouping (Algorithm 1, lines 1-2): the permutation from
  /// `seed_e` and `round`, split into `num_groups` groups.
  Result<std::vector<std::vector<size_t>>> RoundGroups(uint64_t round) const;
};

}  // namespace bcfl::core
