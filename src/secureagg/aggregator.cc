#include "secureagg/aggregator.h"

#include <algorithm>

#include "secureagg/mask.h"

namespace bcfl::secureagg {

SecureAggregator::SecureAggregator(
    crypto::GroupParams params, std::map<OwnerId, crypto::UInt256> public_keys)
    : params_(params), public_keys_(std::move(public_keys)) {}

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
  // submission contains sign(v, u) * m_uv for every dropped u in the
  // group; regenerate each from u's reconstructed DH private key.
  crypto::DiffieHellman dh(params_);
  for (OwnerId u : dropped) {
    auto key_it = unmask.dropped_private_keys.find(u);
    if (key_it == unmask.dropped_private_keys.end()) {
      return Status::FailedPrecondition(
          "missing private key for dropped member " + std::to_string(u));
    }
    for (OwnerId v : survivors) {
      auto pub_it = public_keys_.find(v);
      if (pub_it == public_keys_.end()) {
        return Status::NotFound("no public key on chain for owner " +
                                std::to_string(v));
      }
      crypto::UInt256 shared = dh.ComputeShared(key_it->second, pub_it->second);
      ExpandMaskInto(DerivePairKey(shared, u, v), round, length, &mask);
      if (v < u) {
        // v added +mask; cancel it.
        for (size_t i = 0; i < length; ++i) sum[i] -= mask[i];
      } else {
        for (size_t i = 0; i < length; ++i) sum[i] += mask[i];
      }
    }
  }

  return sum;
}

Result<std::array<uint8_t, 32>> SecureAggregator::ReconstructSecret32(
    const std::vector<crypto::ShamirShare>& shares, size_t threshold,
    size_t roster_size) {
  BCFL_ASSIGN_OR_RETURN(
      crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(threshold, roster_size));
  BCFL_ASSIGN_OR_RETURN(Bytes secret, scheme.Reconstruct(shares, 32));
  std::array<uint8_t, 32> out;
  std::copy(secret.begin(), secret.end(), out.begin());
  return out;
}

Result<std::vector<std::array<uint8_t, 32>>>
SecureAggregator::ReconstructSecrets32(
    const std::vector<std::vector<crypto::ShamirShare>>& share_sets,
    size_t threshold, size_t roster_size, ThreadPool* pool) {
  BCFL_ASSIGN_OR_RETURN(
      crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(threshold, roster_size));
  std::vector<size_t> sizes(share_sets.size(), 32);
  BCFL_ASSIGN_OR_RETURN(std::vector<Bytes> secrets,
                        scheme.ReconstructBatch(share_sets, sizes, pool));
  std::vector<std::array<uint8_t, 32>> out(secrets.size());
  for (size_t k = 0; k < secrets.size(); ++k) {
    std::copy(secrets[k].begin(), secrets[k].end(), out[k].begin());
  }
  return out;
}

}  // namespace bcfl::secureagg
