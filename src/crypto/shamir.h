#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/dh.h"

namespace bcfl::crypto {

/// One participant's share of a secret-shared value.
struct ShamirShare {
  uint64_t x;                    ///< Evaluation point (participant index, >= 1).
  std::vector<uint64_t> values;  ///< One field element per secret chunk.
};

/// Feldman commitment to the sharing polynomials of one Split call:
/// `rows[c][d] = g^{coeff_c[d]} mod P` for secret chunk `c` and polynomial
/// degree `d` (d = 0 commits the chunk itself). Published alongside the
/// shares, it lets any holder check its own share — and any verifier check
/// a *revealed* share — without learning the secret: the discrete logs of
/// the row entries are hidden, but `g^y == prod_d rows[c][d]^(x^d)` holds
/// exactly when `y` is the dealer's polynomial evaluated at `x`.
struct VssCommitment {
  std::vector<std::vector<UInt256>> rows;

  bool empty() const { return rows.empty(); }

  /// Canonical wire format: row/column counts then 32-byte group elements.
  Bytes Serialize() const;
  /// Rejects truncated input, ragged rows and out-of-group elements.
  static Result<VssCommitment> Deserialize(const Bytes& bytes);

  bool operator==(const VssCommitment& other) const {
    return rows == other.rows;
  }
};

/// The recovery threshold among `num_shares` holders: `requested`, or a
/// strict majority of the holders when `requested` is 0. The one place
/// the protocol's default threshold is written.
size_t ResolveThreshold(size_t requested, size_t num_shares);

/// Shamir secret sharing over GF(p) with p = 2^61 - 1 (Mersenne prime).
///
/// The secure-aggregation protocol (following Bonawitz et al., which the
/// paper adopts) secret-shares each owner's mask seeds so the remaining
/// owners can reconstruct the pairwise masks of a dropped participant and
/// un-stick the aggregate. Byte secrets are packed 7 bytes per field
/// element (56 bits < 61 bits), so any byte string round-trips exactly.
class ShamirSecretSharing {
 public:
  /// Field modulus, 2^61 - 1.
  static constexpr uint64_t kPrime = (1ULL << 61) - 1;
  /// Bytes packed into each field element.
  static constexpr size_t kChunkBytes = 7;

  /// Creates a (threshold, num_shares) scheme: any `threshold` shares
  /// reconstruct, fewer reveal nothing. Requires
  /// 1 <= threshold <= num_shares < kPrime.
  static Result<ShamirSecretSharing> Create(size_t threshold,
                                            size_t num_shares);

  size_t threshold() const { return threshold_; }
  size_t num_shares() const { return num_shares_; }

  /// Splits `secret` (arbitrary bytes) into `num_shares()` shares.
  std::vector<ShamirShare> Split(const Bytes& secret, Xoshiro256* rng) const;

  /// The Feldman commitment group: P = 52 * (2^61 - 1) + 1 (a 67-bit
  /// prime) with generator g = 2^52. Because g = 2^52 = h^52 with h = 2
  /// and g != 1, the order of g divides (P-1)/52 = 2^61 - 1 — the Shamir
  /// field modulus, itself prime — so ord(g) is *exactly* kPrime and
  /// exponent arithmetic mod kPrime agrees with group exponentiation.
  /// (The DH group 2^255 - 19 cannot be reused: its generator order is
  /// unrelated to kPrime, so polynomial identities would not transfer.)
  static GroupParams VssGroup();

  /// Split plus a Feldman commitment to every chunk polynomial. Consumes
  /// the *identical* RNG stream as Split — commitments are derived from
  /// the same coefficients, no extra randomness — so a seeded protocol
  /// run produces bit-identical shares whichever entry point it uses.
  std::vector<ShamirShare> SplitVerifiable(const Bytes& secret,
                                           Xoshiro256* rng,
                                           VssCommitment* commitment) const;

  /// True iff `share` is consistent with `commitment`: for every chunk c,
  /// g^{y_c} == prod_d rows[c][d]^{x^d} (mod P). Structural mismatches
  /// (x = 0 or out of field, value out of field, chunk-count mismatch,
  /// coefficient count != threshold()) return false rather than erroring:
  /// a malformed share is exactly as damning as a forged one. Batch path:
  /// the exponents x^d are computed once and the commitment entries go
  /// through the Montgomery GroupContext's cached fixed-base tables.
  bool VerifyShare(const ShamirShare& share,
                   const VssCommitment& commitment) const;

  /// Seed-faithful verification via plain UInt256::ModPow — the reference
  /// the Montgomery batch path is regression-tested against.
  bool VerifyShareReference(const ShamirShare& share,
                            const VssCommitment& commitment) const;

  /// Reconstructs the secret from >= threshold() shares with distinct,
  /// valid x coordinates, by Lagrange interpolation at zero over the
  /// first threshold() of them. `secret_size` restores the exact
  /// original length (packing pads the final chunk).
  Result<Bytes> Reconstruct(const std::vector<ShamirShare>& shares,
                            size_t secret_size) const;

  struct VerifiedReveal {
    Bytes secret;
    std::vector<size_t> rejected;  ///< Candidates that failed VerifyShare.
  };
  /// The verified share reveal: checks `candidates` in order against the
  /// dealer's `commitment`, keeps the first threshold() shares that
  /// verify and reconstructs the `secret_size`-byte secret from them.
  /// Candidates after the threshold()-th valid share are not examined.
  /// Fails closed (FailedPrecondition) below threshold() valid shares.
  Result<VerifiedReveal> RevealVerified(
      const std::vector<ShamirShare>& candidates,
      const VssCommitment& commitment, size_t secret_size) const;

  // Field helpers, exposed for tests.
  static uint64_t FieldAdd(uint64_t a, uint64_t b);
  static uint64_t FieldSub(uint64_t a, uint64_t b);
  static uint64_t FieldMul(uint64_t a, uint64_t b);
  /// Multiplicative inverse via Fermat's little theorem; a != 0.
  static uint64_t FieldInv(uint64_t a);
  static uint64_t FieldPow(uint64_t base, uint64_t exp);

 private:
  ShamirSecretSharing(size_t threshold, size_t num_shares)
      : threshold_(threshold), num_shares_(num_shares) {}

  /// Packs bytes into field elements, 7 bytes each, zero-padded.
  static std::vector<uint64_t> Pack(const Bytes& secret);
  /// Inverse of Pack.
  static Bytes Unpack(const std::vector<uint64_t>& elements, size_t size);

  size_t threshold_;
  size_t num_shares_;
};

}  // namespace bcfl::crypto
