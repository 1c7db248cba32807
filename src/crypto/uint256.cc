#include "crypto/uint256.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bcfl::crypto {

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

Result<UInt256> UInt256::FromHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 64) {
    return Status::InvalidArgument("hex must be 1..64 digits");
  }
  UInt256 out;
  for (char c : hex) {
    int v = HexValue(c);
    if (v < 0) return Status::InvalidArgument("non-hex character");
    // out = out * 16 + v, via four single-bit shifts.
    for (int i = 0; i < 4; ++i) {
      if (out.ShiftLeft1()) {
        return Status::OutOfRange("hex value exceeds 256 bits");
      }
    }
    out.limbs_[0] |= static_cast<uint64_t>(v);
  }
  return out;
}

std::string UInt256::ToHex() const {
  std::string out(64, '0');
  for (int i = 0; i < 64; ++i) {
    // Nibble i counted from the most-significant end.
    int limb_index = 3 - i / 16;
    int shift = (15 - i % 16) * 4;
    out[i] = kHexDigits[(limbs_[limb_index] >> shift) & 0xf];
  }
  return out;
}

Result<UInt256> UInt256::FromBytes(const Bytes& bytes) {
  if (bytes.size() != 32) {
    return Status::InvalidArgument("UInt256 requires exactly 32 bytes");
  }
  UInt256 out;
  for (int i = 0; i < 32; ++i) {
    // bytes[0] is the most significant byte.
    int limb_index = 3 - i / 8;
    int shift = (7 - i % 8) * 8;
    out.limbs_[limb_index] |= static_cast<uint64_t>(bytes[i]) << shift;
  }
  return out;
}

Bytes UInt256::ToBytes() const {
  Bytes out(32);
  for (int i = 0; i < 32; ++i) {
    int limb_index = 3 - i / 8;
    int shift = (7 - i % 8) * 8;
    out[i] = static_cast<uint8_t>(limbs_[limb_index] >> shift);
  }
  return out;
}

bool UInt256::IsZero() const {
  return limbs_[0] == 0 && limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0;
}

int UInt256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] != 0) {
      return 64 * i + (64 - std::countl_zero(limbs_[i]));
    }
  }
  return 0;
}

bool UInt256::Bit(int i) const {
  return (limbs_[i / 64] >> (i % 64)) & 1;
}

int UInt256::Compare(const UInt256& other) const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] < other.limbs_[i]) return -1;
    if (limbs_[i] > other.limbs_[i]) return 1;
  }
  return 0;
}

UInt256 UInt256::Add(const UInt256& other, bool* carry_out) const {
  UInt256 out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 sum = static_cast<unsigned __int128>(limbs_[i]) +
                            other.limbs_[i] + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry_out != nullptr) *carry_out = carry != 0;
  return out;
}

UInt256 UInt256::Sub(const UInt256& other, bool* borrow_out) const {
  UInt256 out;
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t a = limbs_[i];
    uint64_t b = other.limbs_[i];
    uint64_t d1 = a - b;
    uint64_t borrow1 = a < b ? 1 : 0;
    uint64_t d2 = d1 - borrow;
    uint64_t borrow2 = d1 < borrow ? 1 : 0;
    out.limbs_[i] = d2;
    borrow = borrow1 | borrow2;
  }
  if (borrow_out != nullptr) *borrow_out = borrow != 0;
  return out;
}

bool UInt256::ShiftLeft1() {
  bool carry = (limbs_[3] >> 63) & 1;
  for (int i = 3; i > 0; --i) {
    limbs_[i] = (limbs_[i] << 1) | (limbs_[i - 1] >> 63);
  }
  limbs_[0] <<= 1;
  return carry;
}

UInt256 UInt256::ModAdd(const UInt256& other, const UInt256& m) const {
  bool carry = false;
  UInt256 sum = Add(other, &carry);
  // sum may exceed m (or have overflowed 2^256); one subtraction suffices
  // because both operands are < m <= 2^256.
  if (carry || sum >= m) {
    sum = sum.Sub(m);
  }
  return sum;
}

UInt256 UInt256::ModSub(const UInt256& other, const UInt256& m) const {
  bool borrow = false;
  UInt256 diff = Sub(other, &borrow);
  if (borrow) diff = diff.Add(m);
  return diff;
}

std::array<uint64_t, 8> MulWide(const UInt256& a, const UInt256& b) {
  std::array<uint64_t, 8> out{};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a.limb(i)) *
                                  b.limb(j) +
                              out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    out[i + 4] = static_cast<uint64_t>(carry);
  }
  return out;
}

UInt256 Reduce512(const std::array<uint64_t, 8>& value, const UInt256& m) {
  // Restoring binary long division: scan the 512 bits from the most
  // significant down, maintaining remainder r < m. After the shift-in,
  // r < 2m <= 2^257, so we track one overflow bit explicitly.
  UInt256 r;
  for (int bit = 511; bit >= 0; --bit) {
    bool overflow = r.ShiftLeft1();
    if ((value[bit / 64] >> (bit % 64)) & 1) {
      bool carry = false;
      r = r.Add(UInt256(1), &carry);
      overflow = overflow || carry;
    }
    if (overflow || r >= m) {
      // r = (overflow * 2^256 + r) - m; the borrow is absorbed by the
      // overflow bit when present.
      r = r.Sub(m);
    }
  }
  return r;
}

UInt256 UInt256::ModMul(const UInt256& other, const UInt256& m) const {
  return Reduce512(MulWide(*this, other), m);
}

UInt256 UInt256::Mod(const UInt256& m) const {
  if (Compare(m) < 0) return *this;
  if (m.IsZero()) {
    // Degenerate input; preserve the wide-path behaviour exactly.
    std::array<uint64_t, 8> wide{};
    for (int i = 0; i < 4; ++i) wide[i] = limbs_[i];
    return Reduce512(wide, m);
  }
  // Shift-subtract over just the significant bits: align m's top bit
  // with ours and walk down. At most BitLength()-m.BitLength()+1 steps
  // instead of the fixed 512-iteration wide reduction — the common
  // caller reduces a 256-bit hash mod a 255-bit group order, which is
  // two steps.
  int shift = BitLength() - m.BitLength();
  UInt256 r = *this;
  UInt256 d = m;
  // m << shift fits: its bit length becomes exactly ours.
  for (int i = 0; i < shift; ++i) d.ShiftLeft1();
  for (int i = 0; i <= shift; ++i) {
    if (r >= d) r = r.Sub(d);
    for (int j = 0; j < 3; ++j) {
      d.limbs_[j] = (d.limbs_[j] >> 1) | (d.limbs_[j + 1] << 63);
    }
    d.limbs_[3] >>= 1;
  }
  return r;
}

UInt256 UInt256::ModPow(const UInt256& exponent, const UInt256& m) const {
  UInt256 result(1);
  result = result.Mod(m);  // Handles m == 1.
  UInt256 base = Mod(m);
  int bits = exponent.BitLength();
  // Left-to-right square-and-multiply.
  for (int i = bits - 1; i >= 0; --i) {
    result = result.ModMul(result, m);
    if (exponent.Bit(i)) {
      result = result.ModMul(base, m);
    }
  }
  return result;
}

// -- Montgomery ------------------------------------------------------------

namespace {

// -m^-1 mod 2^64 for odd m, by Newton iteration on the 2-adic inverse:
// each step doubles the number of correct low bits.
uint64_t NegInv64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m * inv;
  }
  return ~inv + 1;  // -inv mod 2^64.
}

}  // namespace

Montgomery::Montgomery(const UInt256& modulus) : m_(modulus) {
  // The class is only meaningful for odd moduli > 1; the library routes
  // even-modulus arithmetic (exponent math mod p-1) through the plain
  // ModMul/ModAdd path.
  assert(m_.Bit(0) && m_ > UInt256(1) && "modulus must be odd and > 1");
  n0inv_ = NegInv64(m_.limb(0));
  // R mod m via one restoring-division reduction of 2^256.
  std::array<uint64_t, 8> r_wide{};
  r_wide[4] = 1;
  r_mod_ = Reduce512(r_wide, m_);
  // R^2 mod m; a one-time cost per context, so the slow path is fine.
  r2_ = r_mod_.ModMul(r_mod_, m_);
}

UInt256 Montgomery::Mul(const UInt256& a, const UInt256& b) const {
  // CIOS (coarsely integrated operand scanning): interleave the partial
  // product a*b[i] with the Montgomery reduction step that cancels the
  // lowest limb. Accumulator t has 4 limbs plus a two-limb overflow
  // (t4, t5); t5 never exceeds 1.
  uint64_t t[4] = {0, 0, 0, 0};
  uint64_t t4 = 0, t5 = 0;
  for (int i = 0; i < 4; ++i) {
    // t += a * b[i]
    unsigned __int128 carry = 0;
    uint64_t bi = b.limb(i);
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb(j)) * bi + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    unsigned __int128 s =
        static_cast<unsigned __int128>(t4) + static_cast<uint64_t>(carry);
    t4 = static_cast<uint64_t>(s);
    t5 += static_cast<uint64_t>(s >> 64);

    // u = t[0] * n0inv mod 2^64; t += u*m, then shift right one limb.
    uint64_t u = t[0] * n0inv_;
    carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(u) * m_.limb(j) + t[j] + carry;
      if (j > 0) t[j - 1] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    s = static_cast<unsigned __int128>(t4) + static_cast<uint64_t>(carry);
    t[3] = static_cast<uint64_t>(s);
    t4 = t5 + static_cast<uint64_t>(s >> 64);
    t5 = 0;
  }
  UInt256 out(t[0], t[1], t[2], t[3]);
  // Result < 2m; one conditional subtraction normalises to [0, m).
  if (t4 != 0 || out >= m_) out = out.Sub(m_);
  return out;
}

UInt256 Montgomery::ToMont(const UInt256& x) const {
  return Mul(x, r2_);
}

UInt256 Montgomery::FromMont(const UInt256& a) const {
  return Mul(a, UInt256(1));
}

UInt256 Montgomery::PowMont(const UInt256& base_mont, const UInt256& exp) const {
  int bits = exp.BitLength();
  if (bits == 0) return r_mod_;
  // Precompute base^0..base^15 (Montgomery domain), then consume the
  // exponent four bits at a time, most significant digit first.
  UInt256 window[16];
  window[0] = r_mod_;
  window[1] = base_mont;
  for (int i = 2; i < 16; ++i) window[i] = Mul(window[i - 1], base_mont);

  int top_digit = (bits - 1) / 4;
  auto digit_at = [&exp](int d) -> uint64_t {
    return (exp.limb(d / 16) >> ((d % 16) * 4)) & 0xf;
  };
  UInt256 acc = window[digit_at(top_digit)];
  for (int d = top_digit - 1; d >= 0; --d) {
    acc = Mul(acc, acc);
    acc = Mul(acc, acc);
    acc = Mul(acc, acc);
    acc = Mul(acc, acc);
    uint64_t digit = digit_at(d);
    if (digit != 0) acc = Mul(acc, window[digit]);
  }
  return acc;
}

UInt256 Montgomery::ModExp(const UInt256& base, const UInt256& exp) const {
  return FromMont(PowMont(ToMont(base), exp));
}

// -- FixedBaseTable --------------------------------------------------------

FixedBaseTable::FixedBaseTable(const Montgomery& ctx, const UInt256& base)
    : ctx_(ctx), table_(kDigits * kRadix) {
  // Row i holds base^(j * 16^i) for j in 0..15. Row 0 is the plain
  // window; each later row is the previous row raised to the 16th power
  // (computed once for j=1, then extended by multiplication).
  UInt256 b = ctx_.ToMont(base.Mod(ctx_.modulus()));
  for (int i = 0; i < kDigits; ++i) {
    UInt256* row = &table_[static_cast<size_t>(i) * kRadix];
    row[0] = ctx_.OneMont();
    row[1] = b;
    for (int j = 2; j < kRadix; ++j) row[j] = ctx_.Mul(row[j - 1], b);
    if (i + 1 < kDigits) {
      // b <- b^16 = (row base for the next digit position).
      UInt256 next = ctx_.Mul(row[kRadix - 1], b);  // b^16.
      b = next;
    }
  }
}

UInt256 FixedBaseTable::PowMont(const UInt256& exp) const {
  // Product over digit positions: base^e = prod_i base^(d_i * 16^i).
  // No squarings at all — at most 63 multiplications for a 256-bit
  // exponent, and positions with digit 0 are skipped.
  UInt256 acc = ctx_.OneMont();
  for (int d = 0; d < kDigits; ++d) {
    uint64_t digit = (exp.limb(d / 16) >> ((d % 16) * 4)) & 0xf;
    if (digit != 0) {
      acc = ctx_.Mul(acc, table_[static_cast<size_t>(d) * kRadix + digit]);
    }
  }
  return acc;
}

UInt256 FixedBaseTable::Pow(const UInt256& exp) const {
  return ctx_.FromMont(PowMont(exp));
}

}  // namespace bcfl::crypto
