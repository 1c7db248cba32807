#include "secureagg/participant.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "secureagg/mask.h"

namespace bcfl::secureagg {

std::array<uint8_t, 32> DerivePairKey(const crypto::UInt256& shared,
                                      OwnerId a, OwnerId b) {
  if (a > b) std::swap(a, b);
  crypto::Sha256 hasher;
  hasher.Update("bcfl-pairwise-mask-key");
  uint8_t ids[8];
  for (int i = 0; i < 4; ++i) ids[i] = static_cast<uint8_t>(a >> (8 * i));
  for (int i = 0; i < 4; ++i) ids[4 + i] = static_cast<uint8_t>(b >> (8 * i));
  hasher.Update(ids, sizeof(ids));
  hasher.Update(shared.ToBytes());
  crypto::Digest digest = hasher.Finish();
  std::array<uint8_t, 32> key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return key;
}

void FoldPairMask(const std::array<uint8_t, 32>& pair_key, OwnerId owner,
                  OwnerId peer, uint64_t round, bool cancel,
                  std::vector<uint64_t>* scratch, std::vector<uint64_t>* vec) {
  ExpandMaskInto(pair_key, round, vec->size(), scratch);
  const std::vector<uint64_t>& mask = *scratch;
  if ((owner < peer) != cancel) {
    for (size_t i = 0; i < vec->size(); ++i) (*vec)[i] += mask[i];
  } else {
    for (size_t i = 0; i < vec->size(); ++i) (*vec)[i] -= mask[i];
  }
}

SecureAggParticipant::SecureAggParticipant(OwnerId id,
                                           const crypto::DiffieHellman& dh,
                                           Xoshiro256* rng, bool use_self_mask)
    : id_(id), dh_(dh), use_self_mask_(use_self_mask) {
  key_pair_ = dh_.GenerateKeyPair(rng);
  for (size_t i = 0; i < self_seed_.size(); i += 8) {
    uint64_t word = rng->Next();
    for (size_t j = 0; j < 8; ++j) {
      self_seed_[i + j] = static_cast<uint8_t>(word >> (8 * j));
    }
  }
}

Status SecureAggParticipant::RegisterPeer(OwnerId peer,
                                          const crypto::UInt256& peer_public) {
  if (peer == id_) {
    return Status::InvalidArgument("cannot register self as peer");
  }
  if (peer_public.IsZero() || peer_public >= dh_.params().p) {
    return Status::InvalidArgument("peer public key outside the group");
  }
  crypto::UInt256 shared =
      dh_.ComputeShared(key_pair_.private_key, peer_public);
  pair_keys_[peer] = DerivePairKey(shared, id_, peer);
  return Status::OK();
}

bool SecureAggParticipant::HasPeer(OwnerId peer) const {
  return pair_keys_.count(peer) > 0;
}

Result<std::array<uint8_t, 32>> SecureAggParticipant::PairKey(
    OwnerId peer) const {
  auto it = pair_keys_.find(peer);
  if (it == pair_keys_.end()) {
    return Status::NotFound("peer not registered: " + std::to_string(peer));
  }
  return it->second;
}

Result<std::vector<uint64_t>> SecureAggParticipant::MaskUpdate(
    uint64_t round, const std::vector<OwnerId>& group_members,
    const std::vector<uint64_t>& encoded) const {
  MaskScratch scratch;
  std::vector<uint64_t> out;
  Status status = MaskUpdateInto(round, group_members, encoded, &scratch, &out);
  if (!status.ok()) return status;
  return out;
}

Status SecureAggParticipant::MaskUpdateInto(
    uint64_t round, const std::vector<OwnerId>& group_members,
    const std::vector<uint64_t>& encoded, MaskScratch* scratch,
    std::vector<uint64_t>* out) const {
  static auto& masked_updates = obs::MetricsRegistry::Global().GetCounter(
      "secureagg.masked_updates");
  static auto& mask_us =
      obs::MetricsRegistry::Global().GetHistogram("secureagg.mask_us");
  obs::ScopedLatency latency(mask_us);
  masked_updates.Add();
  if (std::find(group_members.begin(), group_members.end(), id_) ==
      group_members.end()) {
    return Status::InvalidArgument("participant not in the given group");
  }
  // Validate the whole roster before writing `*out`: a failed call must
  // not leave the unmasked update in the caller's buffer.
  for (OwnerId peer : group_members) {
    if (peer != id_ && pair_keys_.count(peer) == 0) {
      return Status::FailedPrecondition("peer key not registered: " +
                                        std::to_string(peer));
    }
  }
  *out = encoded;
  for (OwnerId peer : group_members) {
    if (peer == id_) continue;
    FoldPairMask(pair_keys_.at(peer), id_, peer, round, /*cancel=*/false,
                 &scratch->mask, out);
  }
  if (use_self_mask_) {
    ExpandSelfMaskInto(self_seed_, round, out->size(), &scratch->self_mask);
    for (size_t i = 0; i < out->size(); ++i) (*out)[i] += scratch->self_mask[i];
  }
  return Status::OK();
}

Result<RecoveryShares> SecureAggParticipant::ShareSecrets(
    size_t threshold, size_t roster_size, Xoshiro256* rng) const {
  BCFL_ASSIGN_OR_RETURN(
      crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(threshold, roster_size));
  RecoveryShares out;
  // SplitVerifiable draws the exact RNG stream Split draws; the Feldman
  // commitments are derived from the same coefficients, so seeded runs
  // are bit-identical to the pre-VSS protocol.
  out.dh_private_shares = scheme.SplitVerifiable(
      key_pair_.private_key.ToBytes(), rng, &out.dh_commitment);
  Bytes seed_bytes(self_seed_.begin(), self_seed_.end());
  out.self_seed_shares =
      scheme.SplitVerifiable(seed_bytes, rng, &out.self_seed_commitment);
  return out;
}

}  // namespace bcfl::secureagg
