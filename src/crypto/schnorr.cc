#include "crypto/schnorr.h"

namespace bcfl::crypto {

Bytes SchnorrSignature::ToBytes() const {
  Bytes out = r.ToBytes();
  Bytes s_bytes = s.ToBytes();
  out.insert(out.end(), s_bytes.begin(), s_bytes.end());
  return out;
}

Result<SchnorrSignature> SchnorrSignature::FromBytes(const Bytes& bytes) {
  if (bytes.size() != 64) {
    return Status::InvalidArgument("Schnorr signature must be 64 bytes");
  }
  Bytes r_bytes(bytes.begin(), bytes.begin() + 32);
  Bytes s_bytes(bytes.begin() + 32, bytes.end());
  BCFL_ASSIGN_OR_RETURN(UInt256 r, UInt256::FromBytes(r_bytes));
  BCFL_ASSIGN_OR_RETURN(UInt256 s, UInt256::FromBytes(s_bytes));
  return SchnorrSignature{r, s};
}

Schnorr::Schnorr(GroupParams params)
    : params_(params),
      order_(params.p.Sub(UInt256(1))),
      ctx_(GroupContext::Get(params)) {}

SchnorrKeyPair Schnorr::GenerateKeyPair(Xoshiro256* rng) const {
  UInt256 x = RandomInRange(rng, UInt256(2), params_.p.Sub(UInt256(2)));
  return SchnorrKeyPair{x, ctx_->PowG(x)};
}

UInt256 Schnorr::Challenge(const UInt256& r, const UInt256& public_key,
                           const Bytes& message) const {
  Sha256 hasher;
  hasher.Update(r.ToBytes());
  hasher.Update(public_key.ToBytes());
  hasher.Update(message);
  Digest digest = hasher.Finish();
  Bytes digest_bytes(digest.begin(), digest.end());
  // FromBytes cannot fail on a 32-byte input.
  UInt256 e = UInt256::FromBytes(digest_bytes).value();
  return e.Mod(order_);
}

SchnorrSignature Schnorr::Sign(const SchnorrKeyPair& key,
                               const Bytes& message, Xoshiro256* rng) const {
  UInt256 k = RandomInRange(rng, UInt256(2), params_.p.Sub(UInt256(2)));
  UInt256 r = ctx_->PowG(k);
  UInt256 e = Challenge(r, key.public_key, message);
  // s = k + e*x mod (p-1).
  UInt256 ex = e.ModMul(key.private_key.Mod(order_), order_);
  UInt256 s = k.Mod(order_).ModAdd(ex, order_);
  return SchnorrSignature{r, s};
}

bool Schnorr::Verify(const UInt256& public_key, const Bytes& message,
                     const SchnorrSignature& sig) const {
  if (sig.r.IsZero() || sig.r >= params_.p) return false;
  if (public_key.IsZero() || public_key >= params_.p) return false;
  UInt256 e = Challenge(sig.r, public_key, message);
  return ctx_->VerifyGsEq(sig.s, sig.r, public_key, e);
}

namespace reference {

bool SchnorrVerify(const GroupParams& params, const UInt256& public_key,
                   const Bytes& message, const SchnorrSignature& sig) {
  if (sig.r.IsZero() || sig.r >= params.p) return false;
  if (public_key.IsZero() || public_key >= params.p) return false;
  UInt256 order = params.p.Sub(UInt256(1));
  Sha256 hasher;
  hasher.Update(sig.r.ToBytes());
  hasher.Update(public_key.ToBytes());
  hasher.Update(message);
  Digest digest = hasher.Finish();
  Bytes digest_bytes(digest.begin(), digest.end());
  UInt256 e = UInt256::FromBytes(digest_bytes).value().Mod(order);
  UInt256 lhs = params.g.ModPow(sig.s, params.p);
  UInt256 rhs = sig.r.ModMul(public_key.ModPow(e, params.p), params.p);
  return lhs == rhs;
}

}  // namespace reference

}  // namespace bcfl::crypto
