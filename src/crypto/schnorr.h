#pragma once

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/dh.h"
#include "crypto/uint256.h"

namespace bcfl::crypto {

/// A Schnorr-style signature (R, s) over the library's discrete-log group.
struct SchnorrSignature {
  UInt256 r;  ///< Commitment R = g^k mod p.
  UInt256 s;  ///< Response s = k + e*x mod (p-1).

  /// Serializes as 64 big-endian bytes (R || s).
  Bytes ToBytes() const;
  static Result<SchnorrSignature> FromBytes(const Bytes& bytes);
};

/// Signing key pair; public_key = g^x mod p (shares the DH group).
struct SchnorrKeyPair {
  UInt256 private_key;
  UInt256 public_key;
};

/// Schnorr identification-scheme signatures, used to authenticate every
/// blockchain transaction: miners verify that a masked model update or an
/// evaluation proposal really originates from the claimed data owner.
///
/// Sign:   k <-$ [2, p-2];  R = g^k;  e = H(R || pub || msg) mod (p-1);
///         s = k + e*x mod (p-1).
/// Verify: g^s == R * pub^e (mod p).
///
/// Exponent arithmetic is mod (p-1); the identity holds for any group
/// element order dividing p-1, so verification is exact. (Production
/// would pick a prime-order subgroup; documented in DESIGN.md.)
class Schnorr {
 public:
  explicit Schnorr(GroupParams params = GroupParams::Default());

  const GroupParams& params() const { return params_; }

  /// Generates a fresh signing key pair.
  SchnorrKeyPair GenerateKeyPair(Xoshiro256* rng) const;

  /// Signs `message` with `key`. `rng` supplies the per-signature nonce.
  SchnorrSignature Sign(const SchnorrKeyPair& key, const Bytes& message,
                        Xoshiro256* rng) const;

  /// Verifies `sig` over `message` against `public_key`.
  bool Verify(const UInt256& public_key, const Bytes& message,
              const SchnorrSignature& sig) const;

 private:
  /// e = SHA-256(R || pub || msg) interpreted big-endian, mod (p-1).
  UInt256 Challenge(const UInt256& r, const UInt256& public_key,
                    const Bytes& message) const;

  GroupParams params_;
  UInt256 order_;  ///< p - 1, modulus for exponent arithmetic.
  /// Shared per-group fast-exponentiation state.
  std::shared_ptr<const GroupContext> ctx_;
};

namespace reference {

/// The seed's scalar verification equation, verbatim: range checks, then
/// g^s == R * pub^e (mod p) via square-and-multiply over restoring
/// division. Kept callable in every build so benches can equivalence-gate
/// the optimized path against it.
bool SchnorrVerify(const GroupParams& params, const UInt256& public_key,
                   const Bytes& message, const SchnorrSignature& sig);

}  // namespace reference

}  // namespace bcfl::crypto
