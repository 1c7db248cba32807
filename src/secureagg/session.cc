#include "secureagg/session.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::secureagg {

Result<SecureAggSession> SecureAggSession::Create(size_t num_owners,
                                                  SessionConfig config) {
  obs::ScopedSpan setup_span(obs::Tracer::Global(), "secureagg_setup",
                             "secureagg");
  if (num_owners < 2) {
    return Status::InvalidArgument("secure aggregation needs >= 2 owners");
  }
  SecureAggSession session(config, FixedPointCodec(config.fixed_point_bits));
  // ShareSecrets (phase 3) rejects a threshold above the roster.
  session.threshold_ = crypto::ResolveThreshold(config.threshold, num_owners);

  Xoshiro256 rng(config.seed);
  crypto::DiffieHellman dh;

  // Phase 1: key generation + broadcast.
  {
    obs::ScopedSpan span(obs::Tracer::Global(), "keygen", "secureagg");
    session.participants_.reserve(num_owners);
    for (size_t i = 0; i < num_owners; ++i) {
      session.participants_.push_back(std::make_unique<SecureAggParticipant>(
          static_cast<OwnerId>(i), dh, &rng, config.use_self_masks));
    }
  }

  // Phase 2: pairwise key agreement from broadcast public keys.
  std::map<OwnerId, crypto::UInt256> roster;
  {
    obs::ScopedSpan span(obs::Tracer::Global(), "key_agreement", "secureagg");
    for (const auto& p : session.participants_) {
      roster[p->id()] = p->public_key();
    }
    for (auto& p : session.participants_) {
      for (const auto& [peer, pub] : roster) {
        if (peer == p->id()) continue;
        BCFL_RETURN_IF_ERROR(p->RegisterPeer(peer, pub));
      }
    }
  }

  // Phase 3: secret-share recovery material.
  {
    obs::ScopedSpan span(obs::Tracer::Global(), "share_secrets", "secureagg");
    session.recovery_shares_.reserve(num_owners);
    for (auto& p : session.participants_) {
      BCFL_ASSIGN_OR_RETURN(
          RecoveryShares shares,
          p->ShareSecrets(session.threshold_, num_owners, &rng));
      session.recovery_shares_.push_back(std::move(shares));
    }
  }

  session.aggregator_ = std::make_unique<SecureAggregator>(
      dh.params(), std::move(roster));
  session.dropouts_counter_ =
      &obs::MetricsRegistry::Global().GetCounter("secureagg.dropouts");
  session.recoveries_counter_ =
      &obs::MetricsRegistry::Global().GetCounter("secureagg.recoveries");
  return session;
}

Result<std::vector<uint64_t>> SecureAggSession::Submit(
    OwnerId owner, uint64_t round, const std::vector<OwnerId>& group,
    const std::vector<double>& update) {
  if (owner >= participants_.size()) {
    return Status::OutOfRange("unknown owner");
  }
  std::vector<uint64_t> encoded = codec_.EncodeVector(update);
  return participants_[owner]->MaskUpdate(round, group, encoded);
}

Result<std::vector<std::array<uint8_t, 32>>> SecureAggSession::RevealSecrets(
    const std::vector<RevealJob>& jobs, const std::set<OwnerId>& dropped) {
  std::vector<std::array<uint8_t, 32>> out(jobs.size());
  // Only shares held by *online* roster members can be revealed, and
  // which holders are online is a property of `dropped` alone. The
  // availability check runs before the cache is consulted: a reveal with
  // fewer than `threshold_` live holders must fail closed even if an
  // earlier call with a smaller dropout set already reconstructed the
  // secret.
  std::vector<size_t> holders;
  holders.reserve(participants_.size());
  for (size_t holder = 0; holder < participants_.size(); ++holder) {
    if (dropped.count(static_cast<OwnerId>(holder)) > 0) continue;
    holders.push_back(holder);
  }
  std::vector<size_t> fresh;
  BCFL_ASSIGN_OR_RETURN(
      const crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(threshold_, participants_.size()));
  for (size_t j = 0; j < jobs.size(); ++j) {
    const RevealJob& job = jobs[j];
    if (holders.size() < threshold_) {
      return Status::FailedPrecondition(
          "only " + std::to_string(holders.size()) + " shares of owner " +
          std::to_string(job.id) + "'s secret survive; threshold is " +
          std::to_string(threshold_) + " — failing closed");
    }
    auto cached = reveal_cache_.find({job.id, job.dh_key});
    if (cached != reveal_cache_.end()) {
      out[j] = cached->second;
      continue;
    }
    const RecoveryShares& all = recovery_shares_[job.id];
    const auto& source =
        job.dh_key ? all.dh_private_shares : all.self_seed_shares;
    const crypto::VssCommitment& commitment =
        job.dh_key ? all.dh_commitment : all.self_seed_commitment;
    // Feldman check (PR 9): a holder revealing a share that is not on the
    // dealer's committed polynomial is caught before the forgery can
    // poison Lagrange interpolation; the reveal proceeds over the
    // remaining honest holders and fails closed below the threshold.
    std::vector<crypto::ShamirShare> candidates;
    candidates.reserve(holders.size());
    for (size_t holder : holders) candidates.push_back(source[holder]);
    auto reveal = scheme.RevealVerified(candidates, commitment, 32);
    if (!reveal.ok()) {
      return reveal.status().WithContext("revealing owner " +
                                         std::to_string(job.id) + "'s secret");
    }
    std::copy(reveal->secret.begin(), reveal->secret.end(), out[j].begin());
    fresh.push_back(j);
  }
  // Cached and counted only once every job of the call has succeeded.
  for (size_t j : fresh) {
    reveal_cache_.emplace(std::make_pair(jobs[j].id, jobs[j].dh_key), out[j]);
    if (jobs[j].dh_key) recoveries_counter_->Add();
  }
  return out;
}

Result<std::vector<double>> SecureAggSession::AggregateGroupMean(
    uint64_t round, const std::vector<OwnerId>& group,
    const std::map<OwnerId, std::vector<uint64_t>>& submissions,
    const std::set<OwnerId>& dropped) {
  obs::ScopedSpan span(obs::Tracer::Global(), "mask_round", "secureagg");
  for (OwnerId id : group) {
    // Unique owners, not calls: aggregating two groups (or retrying one)
    // with the same dropout must count it once.
    if (dropped.count(id) > 0 && counted_dropouts_.insert(id).second) {
      dropouts_counter_->Add();
    }
  }
  UnmaskingInfo unmask;
  std::vector<RevealJob> jobs;
  jobs.reserve(group.size());
  for (OwnerId id : group) {
    if (dropped.count(id) > 0) {
      jobs.push_back({id, /*dh_key=*/true});
    } else if (config_.use_self_masks) {
      jobs.push_back({id, /*dh_key=*/false});
    }
  }
  BCFL_ASSIGN_OR_RETURN(auto secrets, RevealSecrets(jobs, dropped));
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].dh_key) {
      Bytes as_bytes(secrets[j].begin(), secrets[j].end());
      BCFL_ASSIGN_OR_RETURN(crypto::UInt256 key,
                            crypto::UInt256::FromBytes(as_bytes));
      unmask.dropped_private_keys[jobs[j].id] = key;
    } else {
      unmask.survivor_self_seeds[jobs[j].id] = secrets[j];
    }
  }

  BCFL_ASSIGN_OR_RETURN(
      std::vector<uint64_t> sum,
      aggregator_->SumGroup(round, group, submissions, unmask,
                            config_.use_self_masks));

  size_t survivors = 0;
  for (OwnerId id : group) {
    if (dropped.count(id) == 0 && submissions.count(id) > 0) ++survivors;
  }
  return codec_.DecodeMean(sum, survivors);
}

}  // namespace bcfl::secureagg
