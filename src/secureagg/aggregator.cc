#include "secureagg/aggregator.h"

#include <algorithm>

#include "secureagg/mask.h"

namespace bcfl::secureagg {

SecureAggregator::SecureAggregator(
    crypto::GroupParams params, std::map<OwnerId, crypto::UInt256> public_keys)
    : dh_(params), public_keys_(std::move(public_keys)) {}

Result<std::array<uint8_t, 32>> SecureAggregator::PairKeyFrom(
    const crypto::UInt256& private_key, OwnerId owner, OwnerId peer) const {
  auto pub_it = public_keys_.find(peer);
  if (pub_it == public_keys_.end()) {
    return Status::NotFound("no public key on chain for owner " +
                            std::to_string(peer));
  }
  return DerivePairKey(dh_.ComputeShared(private_key, pub_it->second), owner,
                       peer);
}

Status SecureAggregator::VerifyRevealedKey(
    OwnerId owner, const crypto::UInt256& private_key) const {
  auto pub_it = public_keys_.find(owner);
  if (pub_it == public_keys_.end()) {
    return Status::NotFound("no public key on chain for owner " +
                            std::to_string(owner));
  }
  if (dh_.PublicKey(private_key) != pub_it->second) {
    return Status::PermissionDenied("revealed key does not match owner " +
                                    std::to_string(owner) + "'s public key");
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> SecureAggregator::SumGroup(
    uint64_t round, const std::vector<OwnerId>& group_members,
    const std::map<OwnerId, std::vector<uint64_t>>& submissions,
    const UnmaskingInfo& unmask, bool self_masks_in_use) const {
  if (group_members.empty()) {
    return Status::InvalidArgument("empty group");
  }

  // Split the group into survivors (submitted) and dropped.
  std::vector<OwnerId> survivors, dropped;
  for (OwnerId id : group_members) {
    if (submissions.count(id) > 0) {
      survivors.push_back(id);
    } else {
      dropped.push_back(id);
    }
  }
  if (survivors.empty()) {
    return Status::FailedPrecondition("no submissions for the group");
  }

  // Ring-sum the survivors' masked vectors.
  size_t length = submissions.at(survivors[0]).size();
  std::vector<uint64_t> sum(length, 0);
  for (OwnerId id : survivors) {
    const auto& vec = submissions.at(id);
    if (vec.size() != length) {
      return Status::InvalidArgument("submission length mismatch for owner " +
                                     std::to_string(id));
    }
    for (size_t i = 0; i < length; ++i) sum[i] += vec[i];
  }

  // Remove survivors' self masks, in roster order. Each is expanded into
  // the one reused buffer and folded into the sum at once.
  std::vector<uint64_t> mask;
  if (self_masks_in_use) {
    for (OwnerId id : survivors) {
      auto it = unmask.survivor_self_seeds.find(id);
      if (it == unmask.survivor_self_seeds.end()) {
        return Status::FailedPrecondition(
            "missing self-mask seed for survivor " + std::to_string(id));
      }
      ExpandSelfMaskInto(it->second, round, length, &mask);
      for (size_t i = 0; i < length; ++i) sum[i] -= mask[i];
    }
  }

  // Remove residual pairwise masks left by dropped members: survivor v's
  // submission carries v's side of the pair mask with every dropped u in
  // the group; regenerate each from u's reconstructed DH private key.
  for (OwnerId u : dropped) {
    auto key_it = unmask.dropped_private_keys.find(u);
    if (key_it == unmask.dropped_private_keys.end()) {
      return Status::FailedPrecondition(
          "missing private key for dropped member " + std::to_string(u));
    }
    for (OwnerId v : survivors) {
      BCFL_ASSIGN_OR_RETURN(auto pair_key, PairKeyFrom(key_it->second, u, v));
      FoldPairMask(pair_key, v, u, round, /*cancel=*/true, &mask, &sum);
    }
  }

  return sum;
}

Result<std::vector<uint64_t>> SecureAggregator::UnmaskOwner(
    uint64_t round, OwnerId owner, const crypto::UInt256& private_key,
    const std::vector<OwnerId>& group_members,
    std::vector<uint64_t> masked) const {
  if (std::find(group_members.begin(), group_members.end(), owner) ==
      group_members.end()) {
    return Status::InvalidArgument("owner " + std::to_string(owner) +
                                   " not in the given group");
  }
  std::vector<uint64_t> mask;
  for (OwnerId peer : group_members) {
    if (peer == owner) continue;
    BCFL_ASSIGN_OR_RETURN(auto pair_key,
                          PairKeyFrom(private_key, owner, peer));
    FoldPairMask(pair_key, owner, peer, round, /*cancel=*/true, &mask,
                 &masked);
  }
  return masked;
}

}  // namespace bcfl::secureagg
