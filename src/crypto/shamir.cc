#include "crypto/shamir.h"

#include <set>

namespace bcfl::crypto {

size_t ResolveThreshold(size_t requested, size_t num_shares) {
  return requested != 0 ? requested : num_shares / 2 + 1;
}

uint64_t ShamirSecretSharing::FieldAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;  // < 2^62, no overflow.
  if (s >= kPrime) s -= kPrime;
  return s;
}

uint64_t ShamirSecretSharing::FieldSub(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

uint64_t ShamirSecretSharing::FieldMul(uint64_t a, uint64_t b) {
  unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  // Fast Mersenne reduction: x = hi*2^61 + lo == hi + lo (mod 2^61 - 1).
  uint64_t lo = static_cast<uint64_t>(product) & kPrime;
  uint64_t hi = static_cast<uint64_t>(product >> 61);
  uint64_t s = lo + hi;
  if (s >= kPrime) s -= kPrime;
  // One more fold covers hi parts beyond 61 bits (product < 2^122).
  if (s >= kPrime) s -= kPrime;
  return s;
}

uint64_t ShamirSecretSharing::FieldPow(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  base %= kPrime;
  while (exp > 0) {
    if (exp & 1) result = FieldMul(result, base);
    base = FieldMul(base, base);
    exp >>= 1;
  }
  return result;
}

uint64_t ShamirSecretSharing::FieldInv(uint64_t a) {
  return FieldPow(a, kPrime - 2);
}

Result<ShamirSecretSharing> ShamirSecretSharing::Create(size_t threshold,
                                                        size_t num_shares) {
  if (threshold == 0) {
    return Status::InvalidArgument("threshold must be >= 1");
  }
  if (threshold > num_shares) {
    return Status::InvalidArgument("threshold exceeds number of shares");
  }
  if (num_shares >= kPrime) {
    return Status::InvalidArgument("too many shares for the field");
  }
  return ShamirSecretSharing(threshold, num_shares);
}

std::vector<uint64_t> ShamirSecretSharing::Pack(const Bytes& secret) {
  std::vector<uint64_t> out;
  out.reserve((secret.size() + kChunkBytes - 1) / kChunkBytes);
  for (size_t i = 0; i < secret.size(); i += kChunkBytes) {
    uint64_t v = 0;
    for (size_t j = 0; j < kChunkBytes && i + j < secret.size(); ++j) {
      v |= static_cast<uint64_t>(secret[i + j]) << (8 * j);
    }
    out.push_back(v);
  }
  return out;
}

Bytes ShamirSecretSharing::Unpack(const std::vector<uint64_t>& elements,
                                  size_t size) {
  Bytes out;
  out.reserve(size);
  for (uint64_t v : elements) {
    for (size_t j = 0; j < kChunkBytes && out.size() < size; ++j) {
      out.push_back(static_cast<uint8_t>(v >> (8 * j)));
    }
  }
  out.resize(size);
  return out;
}

std::vector<ShamirShare> ShamirSecretSharing::Split(const Bytes& secret,
                                                    Xoshiro256* rng) const {
  return SplitVerifiable(secret, rng, nullptr);
}

GroupParams ShamirSecretSharing::VssGroup() {
  // P = 52 * (2^61 - 1) + 1 = 0x6_7FFF_FFFF_FFFF_FFCD, g = 2^52.
  return GroupParams{UInt256(0x7FFFFFFFFFFFFFCDull, 6, 0, 0),
                     UInt256(1ULL << 52)};
}

namespace {

/// Process-wide Montgomery context for the commitment group; the registry
/// in GroupContext::Get deduplicates, the static local skips its lock.
const GroupContext& VssContext() {
  static const std::shared_ptr<const GroupContext> ctx =
      GroupContext::Get(ShamirSecretSharing::VssGroup());
  return *ctx;
}

}  // namespace

std::vector<ShamirShare> ShamirSecretSharing::SplitVerifiable(
    const Bytes& secret, Xoshiro256* rng, VssCommitment* commitment) const {
  std::vector<uint64_t> chunks = Pack(secret);
  std::vector<ShamirShare> shares(num_shares_);
  for (size_t s = 0; s < num_shares_; ++s) {
    shares[s].x = static_cast<uint64_t>(s + 1);
    shares[s].values.resize(chunks.size());
  }
  if (commitment != nullptr) {
    commitment->rows.assign(chunks.size(), {});
  }
  // One random polynomial of degree threshold-1 per chunk, constant term
  // = the chunk value.
  for (size_t c = 0; c < chunks.size(); ++c) {
    std::vector<uint64_t> coeffs(threshold_);
    coeffs[0] = chunks[c] % kPrime;
    for (size_t d = 1; d < threshold_; ++d) {
      coeffs[d] = rng->NextBounded(kPrime);
    }
    for (size_t s = 0; s < num_shares_; ++s) {
      // Horner evaluation at x = s+1.
      uint64_t x = shares[s].x;
      uint64_t y = 0;
      for (size_t d = threshold_; d-- > 0;) {
        y = FieldAdd(FieldMul(y, x), coeffs[d]);
      }
      shares[s].values[c] = y;
    }
    if (commitment != nullptr) {
      auto& row = commitment->rows[c];
      row.reserve(threshold_);
      for (size_t d = 0; d < threshold_; ++d) {
        row.push_back(VssContext().PowG(UInt256(coeffs[d])));
      }
    }
  }
  return shares;
}

bool ShamirSecretSharing::VerifyShare(const ShamirShare& share,
                                      const VssCommitment& commitment) const {
  if (share.x == 0 || share.x >= kPrime) return false;
  if (commitment.rows.size() != share.values.size()) return false;
  const GroupContext& ctx = VssContext();
  const UInt256& p = ctx.params().p;
  // x^d mod kPrime, shared by every chunk of this share.
  std::vector<uint64_t> exps(threshold_);
  exps[0] = 1;
  for (size_t d = 1; d < threshold_; ++d) {
    exps[d] = FieldMul(exps[d - 1], share.x % kPrime);
  }
  for (size_t c = 0; c < commitment.rows.size(); ++c) {
    const auto& row = commitment.rows[c];
    if (row.size() != threshold_) return false;
    const uint64_t y = share.values[c];
    if (y >= kPrime) return false;
    UInt256 acc = row[0].Mod(p);  // exps[0] == 1.
    for (size_t d = 1; d < threshold_; ++d) {
      acc = acc.ModMul(ctx.PowBase(row[d], UInt256(exps[d])), p);
    }
    if (ctx.PowG(UInt256(y)) != acc) return false;
  }
  return true;
}

bool ShamirSecretSharing::VerifyShareReference(
    const ShamirShare& share, const VssCommitment& commitment) const {
  if (share.x == 0 || share.x >= kPrime) return false;
  if (commitment.rows.size() != share.values.size()) return false;
  const GroupParams group = VssGroup();
  for (size_t c = 0; c < commitment.rows.size(); ++c) {
    const auto& row = commitment.rows[c];
    if (row.size() != threshold_) return false;
    const uint64_t y = share.values[c];
    if (y >= kPrime) return false;
    uint64_t exp = 1;
    UInt256 acc(1);
    for (size_t d = 0; d < threshold_; ++d) {
      acc = acc.ModMul(row[d].Mod(group.p).ModPow(UInt256(exp), group.p),
                       group.p);
      exp = FieldMul(exp, share.x % kPrime);
    }
    if (group.g.ModPow(UInt256(y), group.p) != acc) return false;
  }
  return true;
}

Bytes VssCommitment::Serialize() const {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(rows.size()));
  writer.WriteU32(rows.empty() ? 0 : static_cast<uint32_t>(rows[0].size()));
  for (const auto& row : rows) {
    for (const auto& point : row) {
      const Bytes raw = point.ToBytes();
      writer.WriteRaw(raw.data(), raw.size());
    }
  }
  return std::move(writer).Take();
}

Result<VssCommitment> VssCommitment::Deserialize(const Bytes& bytes) {
  ByteReader reader(bytes);
  uint32_t num_rows = 0, num_cols = 0;
  BCFL_ASSIGN_OR_RETURN(num_rows, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(num_cols, reader.ReadU32());
  if (num_rows != 0 && num_cols == 0) {
    return Status::InvalidArgument("vss commitment with empty rows");
  }
  const UInt256 p = ShamirSecretSharing::VssGroup().p;
  VssCommitment out;
  out.rows.assign(num_rows, {});
  for (uint32_t r = 0; r < num_rows; ++r) {
    out.rows[r].reserve(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      BCFL_ASSIGN_OR_RETURN(Bytes raw, reader.ReadRaw(32));
      BCFL_ASSIGN_OR_RETURN(UInt256 point, UInt256::FromBytes(raw));
      if (point.IsZero() || point >= p) {
        return Status::InvalidArgument("vss commitment element out of group");
      }
      out.rows[r].push_back(point);
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after vss commitment");
  }
  return out;
}

Result<Bytes> ShamirSecretSharing::Reconstruct(
    const std::vector<ShamirShare>& shares, size_t secret_size) const {
  if (shares.size() < threshold_) {
    return Status::FailedPrecondition(
        "insufficient shares: need " + std::to_string(threshold_) + ", have " +
        std::to_string(shares.size()));
  }
  // Use exactly `threshold_` shares; validate coordinates.
  std::set<uint64_t> seen;
  std::vector<const ShamirShare*> used;
  for (const auto& share : shares) {
    if (share.x == 0 || share.x >= kPrime) {
      return Status::InvalidArgument("share has invalid x coordinate");
    }
    if (!seen.insert(share.x).second) {
      return Status::InvalidArgument("duplicate share x coordinate");
    }
    used.push_back(&share);
    if (used.size() == threshold_) break;
  }
  size_t num_chunks = used[0]->values.size();
  for (const auto* share : used) {
    if (share->values.size() != num_chunks) {
      return Status::InvalidArgument("shares have mismatched chunk counts");
    }
  }

  // Lagrange interpolation at x = 0:
  //   secret = sum_i y_i * prod_{j != i} x_j / (x_j - x_i).
  std::vector<uint64_t> basis(used.size());
  for (size_t i = 0; i < used.size(); ++i) {
    uint64_t num = 1, den = 1;
    for (size_t j = 0; j < used.size(); ++j) {
      if (j == i) continue;
      num = FieldMul(num, used[j]->x % kPrime);
      den = FieldMul(den, FieldSub(used[j]->x % kPrime, used[i]->x % kPrime));
    }
    basis[i] = FieldMul(num, FieldInv(den));
  }

  std::vector<uint64_t> chunks(num_chunks, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    uint64_t acc = 0;
    for (size_t i = 0; i < used.size(); ++i) {
      acc = FieldAdd(acc, FieldMul(used[i]->values[c], basis[i]));
    }
    chunks[c] = acc;
  }
  return Unpack(chunks, secret_size);
}

Result<ShamirSecretSharing::VerifiedReveal>
ShamirSecretSharing::RevealVerified(const std::vector<ShamirShare>& candidates,
                                    const VssCommitment& commitment,
                                    size_t secret_size) const {
  VerifiedReveal reveal;
  std::vector<ShamirShare> accepted;
  for (size_t k = 0; k < candidates.size() && accepted.size() < threshold_;
       ++k) {
    if (VerifyShare(candidates[k], commitment)) {
      accepted.push_back(candidates[k]);
    } else {
      reveal.rejected.push_back(k);
    }
  }
  if (accepted.size() < threshold_) {
    return Status::FailedPrecondition(
        "only " + std::to_string(accepted.size()) + " of " +
        std::to_string(candidates.size()) + " shares verify; threshold is " +
        std::to_string(threshold_) + " — failing closed");
  }
  BCFL_ASSIGN_OR_RETURN(reveal.secret, Reconstruct(accepted, secret_size));
  return reveal;
}

}  // namespace bcfl::crypto
