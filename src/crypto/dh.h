#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/uint256.h"

namespace bcfl::crypto {

/// Multiplicative-group parameters for discrete-log cryptography.
///
/// The default group uses p = 2^255 - 19 (a well-known 255-bit prime) with
/// generator g = 2. The paper's secure-aggregation sketch ("based on
/// discrete logarithm cryptography") only needs a commutative group where
/// g^(ab) is derivable by both endpoints; a production deployment would
/// use an RFC 3526 MODP group or an elliptic curve, which is a drop-in
/// swap behind this interface.
struct GroupParams {
  UInt256 p;  ///< Prime modulus.
  UInt256 g;  ///< Generator.

  /// p = 2^255 - 19, g = 2.
  static GroupParams Default();
};

/// Shared fast-exponentiation state for one discrete-log group: a
/// Montgomery context for p, a fixed-base comb table for the generator
/// g, and a bounded thread-safe cache of per-public-key tables.
///
/// Obtained from a process-wide registry keyed by (p, g), so every
/// by-value copy of a Schnorr or DiffieHellman scheme built from the
/// same parameters shares one context — each miner re-verifying a
/// block reuses the same g-table and the same pub^e tables.
///
/// The modulus must be an odd prime, as in both groups the library
/// builds (`GroupParams::Default()` and the VSS group); `Montgomery`
/// asserts it is odd and > 1.
class GroupContext {
 public:
  /// Returns the shared context for `params`, creating it on first use.
  static std::shared_ptr<const GroupContext> Get(const GroupParams& params);

  /// g^exp mod p via the generator's fixed-base table.
  UInt256 PowG(const UInt256& exp) const;

  /// base^exp mod p. A base seen repeatedly (a public key verified more
  /// than once) gets its own fixed-base table, built on second use;
  /// otherwise a windowed Montgomery ladder. Thread-safe.
  UInt256 PowBase(const UInt256& base, const UInt256& exp) const;

  /// Schnorr verification equation g^s == r * base^e (mod p), evaluated
  /// entirely in the Montgomery domain (equality is preserved by the
  /// domain bijection, so no final conversions are needed).
  bool VerifyGsEq(const UInt256& s, const UInt256& r, const UInt256& base,
                  const UInt256& e) const;

  const GroupParams& params() const { return params_; }

 private:
  explicit GroupContext(const GroupParams& params);

  /// base^exp in the Montgomery domain.
  UInt256 PowBaseMont(const UInt256& base, const UInt256& exp) const;

  struct KeyEntry {
    uint32_t uses = 0;
    std::unique_ptr<FixedBaseTable> table;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, KeyEntry> entries;
  };
  static constexpr size_t kShards = 16;
  /// Caps table memory (~32 KiB each); past the cap new bases use the
  /// plain windowed ladder, which is merely slower, never wrong.
  static constexpr size_t kMaxKeysPerShard = 64;

  GroupParams params_;
  std::unique_ptr<Montgomery> mont_;
  std::unique_ptr<FixedBaseTable> g_table_;
  mutable std::array<Shard, kShards> shards_;
};

/// A Diffie–Hellman key pair: x and g^x mod p.
struct DhKeyPair {
  UInt256 private_key;
  UInt256 public_key;
};

/// Diffie–Hellman key agreement over `GroupParams`.
///
/// Every data owner broadcasts g^x to the blockchain during setup
/// (Sect. IV-A-1 of the paper); pairwise shared secrets g^(xy) then key
/// the mask PRNG in the secure-aggregation module.
class DiffieHellman {
 public:
  explicit DiffieHellman(GroupParams params = GroupParams::Default());

  const GroupParams& params() const { return params_; }

  /// Samples a private key uniformly from [2, p-2] and derives the public
  /// key. Deterministic given the RNG state, so protocol runs are
  /// reproducible.
  DhKeyPair GenerateKeyPair(Xoshiro256* rng) const;

  /// The public key g^private_key mod p of any private key, through the
  /// generator's fixed-base table (the derivation GenerateKeyPair uses).
  UInt256 PublicKey(const UInt256& private_key) const;

  /// Computes the shared group element peer_public^private mod p.
  UInt256 ComputeShared(const UInt256& private_key,
                        const UInt256& peer_public) const;

  /// Derives a 32-byte symmetric key from a shared group element:
  /// SHA-256(label || shared.bytes). Distinct labels yield independent
  /// keys from the same secret.
  static std::array<uint8_t, 32> DeriveKey(const UInt256& shared,
                                           std::string_view label);

 private:
  GroupParams params_;
  std::shared_ptr<const GroupContext> ctx_;
};

/// Samples a uniformly random value in [low, high] (inclusive) using
/// rejection-free mod reduction; bias is negligible for 256-bit ranges.
UInt256 RandomInRange(Xoshiro256* rng, const UInt256& low,
                      const UInt256& high);

}  // namespace bcfl::crypto
