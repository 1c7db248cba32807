#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace bcfl::crypto {

/// Fixed-width 256-bit unsigned integer with the modular arithmetic needed
/// for discrete-log cryptography (Diffie–Hellman key agreement and
/// Schnorr-style signatures).
///
/// Representation: four 64-bit limbs, least-significant first. All
/// arithmetic is constant-width; multiplication produces an internal
/// 512-bit product which is reduced by restoring binary division. This is
/// not a constant-time implementation — the library is a protocol
/// simulator, not a hardened crypto library, and DESIGN.md documents the
/// substitution.
class UInt256 {
 public:
  /// Zero.
  constexpr UInt256() : limbs_{0, 0, 0, 0} {}
  /// Value of a single 64-bit integer.
  constexpr explicit UInt256(uint64_t v) : limbs_{v, 0, 0, 0} {}
  /// From explicit limbs, least-significant first.
  constexpr UInt256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
      : limbs_{l0, l1, l2, l3} {}

  /// Parses big-endian hex (no 0x prefix, up to 64 digits).
  static Result<UInt256> FromHex(std::string_view hex);
  /// Big-endian hex, zero-padded to 64 digits.
  std::string ToHex() const;

  /// Parses exactly 32 big-endian bytes.
  static Result<UInt256> FromBytes(const Bytes& bytes);
  /// 32 big-endian bytes.
  Bytes ToBytes() const;

  bool IsZero() const;
  /// Index of the highest set bit, or -1 when zero.
  int BitLength() const;
  /// Value of bit `i` (0 = least significant).
  bool Bit(int i) const;

  uint64_t limb(int i) const { return limbs_[i]; }

  /// Truncates to the low 64 bits.
  uint64_t ToU64() const { return limbs_[0]; }

  // -- comparison ---------------------------------------------------------
  int Compare(const UInt256& other) const;
  bool operator==(const UInt256& o) const { return Compare(o) == 0; }
  bool operator!=(const UInt256& o) const { return Compare(o) != 0; }
  bool operator<(const UInt256& o) const { return Compare(o) < 0; }
  bool operator<=(const UInt256& o) const { return Compare(o) <= 0; }
  bool operator>(const UInt256& o) const { return Compare(o) > 0; }
  bool operator>=(const UInt256& o) const { return Compare(o) >= 0; }

  // -- plain width-preserving arithmetic ----------------------------------
  /// this + other; carry out returned via `carry` when non-null.
  UInt256 Add(const UInt256& other, bool* carry = nullptr) const;
  /// this - other; borrow out returned via `borrow` when non-null.
  UInt256 Sub(const UInt256& other, bool* borrow = nullptr) const;
  /// Left shift by one bit; returns the bit shifted out.
  bool ShiftLeft1();

  // -- modular arithmetic (all require operands already < modulus) --------
  /// (this + other) mod m.
  UInt256 ModAdd(const UInt256& other, const UInt256& m) const;
  /// (this - other) mod m.
  UInt256 ModSub(const UInt256& other, const UInt256& m) const;
  /// (this * other) mod m via 512-bit product + restoring division.
  UInt256 ModMul(const UInt256& other, const UInt256& m) const;
  /// this^exponent mod m by square-and-multiply. m must be > 1.
  UInt256 ModPow(const UInt256& exponent, const UInt256& m) const;
  /// this mod m for arbitrary `this`.
  UInt256 Mod(const UInt256& m) const;

 private:
  std::array<uint64_t, 4> limbs_;
};

/// Reduces a 512-bit value (8 limbs, little-endian) modulo `m` (> 0).
UInt256 Reduce512(const std::array<uint64_t, 8>& value, const UInt256& m);

/// Full 256x256 -> 512-bit product (schoolbook).
std::array<uint64_t, 8> MulWide(const UInt256& a, const UInt256& b);

/// Montgomery-form modular arithmetic for an odd modulus m > 1.
///
/// Replaces the seed's restoring-division reduction (512 shift/subtract
/// iterations per ModMul) with word-level CIOS multiplication: a 256-bit
/// modular multiply costs 16 64x64->128 products instead of a 512-step
/// bit loop, and exponentiation uses a 4-bit fixed window. All results
/// are exact modular values, so every caller is bit-identical to the
/// ModPow/ModMul path it replaces; UInt256::ModPow itself stays as the
/// seed-faithful reference that tests and benches compare against.
class Montgomery {
 public:
  /// `modulus` must be odd and > 1 (checked by assertion in debug).
  explicit Montgomery(const UInt256& modulus);

  const UInt256& modulus() const { return m_; }

  /// Maps x (< 2^256, any value) into the Montgomery domain: x*R mod m.
  UInt256 ToMont(const UInt256& x) const;
  /// Maps a Montgomery-domain value back: a*R^-1 mod m.
  UInt256 FromMont(const UInt256& a) const;
  /// Product of two Montgomery-domain values (CIOS), result in domain.
  UInt256 Mul(const UInt256& a, const UInt256& b) const;
  /// base^exp where `base_mont` and the result are in the Montgomery
  /// domain; 4-bit windowed left-to-right ladder.
  UInt256 PowMont(const UInt256& base_mont, const UInt256& exp) const;
  /// base^exp mod m, plain-domain in and out.
  UInt256 ModExp(const UInt256& base, const UInt256& exp) const;

  /// 1 in the Montgomery domain (R mod m).
  const UInt256& OneMont() const { return r_mod_; }

 private:
  UInt256 m_;       ///< The odd modulus.
  UInt256 r_mod_;   ///< R = 2^256 mod m.
  UInt256 r2_;      ///< R^2 mod m (for ToMont).
  uint64_t n0inv_;  ///< -m^-1 mod 2^64.
};

/// Precomputed fixed-base exponentiation table: for a fixed base b and
/// odd modulus m, stores b^(j * 16^i) for every 4-bit exponent digit
/// position i and digit value j, all in Montgomery form. b^e then costs
/// at most 63 Montgomery multiplications and zero squarings — the shape
/// of the Schnorr/DH hot loop, where the group generator g (and each
/// repeatedly-seen public key) is raised to many different exponents.
class FixedBaseTable {
 public:
  /// `base` is a plain-domain value (reduced mod ctx.modulus() first).
  FixedBaseTable(const Montgomery& ctx, const UInt256& base);

  /// base^exp in the Montgomery domain.
  UInt256 PowMont(const UInt256& exp) const;
  /// base^exp mod m, plain domain.
  UInt256 Pow(const UInt256& exp) const;

  const Montgomery& ctx() const { return ctx_; }

 private:
  static constexpr int kDigits = 64;   ///< 256 bits / 4-bit digits.
  static constexpr int kRadix = 16;

  Montgomery ctx_;  ///< Copied: the table must outlive any borrowed ctx.
  std::vector<UInt256> table_;  ///< table_[i*16+j] = base^(j*16^i), mont.
};

}  // namespace bcfl::crypto
