#include "core/fl_contract.h"

#include <cmath>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "secureagg/fixed_point.h"
#include "shapley/group_sv.h"

namespace bcfl::core {

secureagg::SecureAggregator RosterAggregator(const SetupParams& params) {
  std::map<secureagg::OwnerId, crypto::UInt256> roster;
  for (uint32_t i = 0; i < params.dh_public_keys.size(); ++i) {
    roster[i] = params.dh_public_keys[i];
  }
  return secureagg::SecureAggregator(crypto::GroupParams::Default(),
                                     std::move(roster));
}

FlContract::FlContract(ml::Dataset validation_set, ThreadPool* pool)
    : validation_set_(std::move(validation_set)),
      pool_(pool),
      utility_(std::make_unique<shapley::CachingUtility>(
          std::make_unique<shapley::TestAccuracyUtility>(validation_set_))) {}

Bytes FlContract::EncodeSubmitUpdate(uint64_t round, uint32_t owner,
                                     const std::vector<uint64_t>& masked) {
  ByteWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(owner);
  writer.WriteU64Vector(masked);
  return writer.Take();
}

Bytes FlContract::EncodeRecover(uint64_t round, uint32_t dropped_owner,
                                const crypto::UInt256& dh_private_key) {
  ByteWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(dropped_owner);
  writer.WriteRaw(dh_private_key.ToBytes().data(), 32);
  return writer.Take();
}

Status FlContract::Execute(const chain::Transaction& tx,
                           chain::ContractState* state) {
  // Executions are counted per miner re-execution, not per unique tx:
  // the same transaction runs once during proposal validation on each
  // validator and once at commit on each replica.
  if (tx.method() == "setup") {
    static auto& setups =
        obs::MetricsRegistry::Global().GetCounter("contract.setup_execs");
    setups.Add();
    return ExecuteSetup(tx, state);
  }
  if (tx.method() == "submit_update") {
    static auto& submits = obs::MetricsRegistry::Global().GetCounter(
        "contract.submit_update_execs");
    submits.Add();
    return ExecuteSubmitUpdate(tx, state);
  }
  if (tx.method() == "recover") {
    static auto& recovers =
        obs::MetricsRegistry::Global().GetCounter("contract.recover_execs");
    recovers.Add();
    return ExecuteRecover(tx, state);
  }
  return Status::Unimplemented("unknown method: " + tx.method());
}

Status FlContract::ExecuteSetup(const chain::Transaction& tx,
                                chain::ContractState* state) {
  if (state->Has(keys::SetupParams())) {
    return Status::AlreadyExists("setup already executed");
  }
  auto params = SetupParams::Deserialize(tx.payload());
  if (!params.ok()) {
    return params.status().WithContext("bad setup payload");
  }
  // The initiator (owner 0) must sign the setup transaction.
  if (params->schnorr_public_keys.empty() ||
      tx.sender() != params->schnorr_public_keys[0]) {
    return Status::PermissionDenied("setup must be signed by owner 0");
  }
  state->Put(keys::SetupParams(), tx.payload());
  return Status::OK();
}

Status FlContract::ExecuteSubmitUpdate(const chain::Transaction& tx,
                                       chain::ContractState* state) {
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));

  ByteReader reader(tx.payload());
  BCFL_ASSIGN_OR_RETURN(uint64_t round, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(uint32_t owner, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(std::vector<uint64_t> masked, reader.ReadU64Vector());
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in submit_update payload");
  }

  BCFL_RETURN_IF_ERROR(params.CheckSlot(round, owner));
  // Authentication: the tx must be signed with the owner's key published
  // at setup (the host already checked the signature itself).
  if (tx.sender() != params.schnorr_public_keys[owner]) {
    return Status::PermissionDenied(
        "submission signed with a key not registered for owner " +
        std::to_string(owner));
  }
  size_t expected =
      static_cast<size_t>(params.weight_rows) * params.weight_cols;
  if (masked.size() != expected) {
    return Status::InvalidArgument("masked update has wrong dimension");
  }
  // Evaluation prunes a round's submissions, so the completion marker,
  // not a missing update, is what refuses a late or repeated one.
  if (state->Has(keys::RoundComplete(round))) {
    return Status::FailedPrecondition("round already evaluated");
  }
  std::string update_key = keys::Update(round, owner);
  if (state->Has(update_key)) {
    return Status::AlreadyExists("owner already submitted this round");
  }
  if (state->Has(keys::Dropped(round, owner))) {
    return Status::FailedPrecondition(
        "owner was already recovered as dropped this round");
  }
  // A recovery revealed this owner's DH key on chain; its masks are
  // public forever, so the contract never accepts its updates again.
  if (state->Has(keys::Retired(owner))) {
    return Status::FailedPrecondition("owner " + std::to_string(owner) +
                                      " was retired by an earlier recovery");
  }
  PutU64Vector(state, update_key, masked);
  return MaybeEvaluateRound(params, round, state);
}

Status FlContract::ExecuteRecover(const chain::Transaction& tx,
                                  chain::ContractState* state) {
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));

  ByteReader reader(tx.payload());
  BCFL_ASSIGN_OR_RETURN(uint64_t round, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(uint32_t dropped, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(Bytes key_bytes, reader.ReadRaw(32));
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in recover payload");
  }
  BCFL_RETURN_IF_ERROR(params.CheckSlot(round, dropped));
  // Any *registered* owner may submit the recovery (it is the product
  // of a threshold of share reveals, not one party's secret).
  if (!params.IsOwnerKey(tx.sender())) {
    return Status::PermissionDenied("recovery must come from an owner");
  }
  // Checked before the update: an evaluated round's updates are pruned.
  if (state->Has(keys::RoundComplete(round))) {
    return Status::FailedPrecondition("round already evaluated");
  }
  if (state->Has(keys::Update(round, dropped))) {
    return Status::FailedPrecondition(
        "owner submitted this round; nothing to recover");
  }
  if (state->Has(keys::Dropped(round, dropped))) {
    return Status::AlreadyExists("owner already recovered this round");
  }
  if (state->Has(keys::Retired(dropped))) {
    return Status::AlreadyExists("owner already retired; its key is on chain");
  }

  // Verifiability: the revealed private key must match the dropped
  // owner's DH public key broadcast at setup — g^x == pub. A forged
  // "recovery" is rejected deterministically by every miner.
  BCFL_ASSIGN_OR_RETURN(crypto::UInt256 private_key,
                        crypto::UInt256::FromBytes(key_bytes));
  BCFL_RETURN_IF_ERROR(
      RosterAggregator(params).VerifyRevealedKey(dropped, private_key));
  RetireOwner(state, round, dropped, private_key);
  return MaybeEvaluateRound(params, round, state);
}

Status FlContract::EvaluateIfComplete(uint64_t round,
                                      chain::ContractState* state) {
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));
  if (round >= params.rounds) {
    return Status::InvalidArgument("round beyond the agreed horizon");
  }
  return MaybeEvaluateRound(params, round, state);
}

Status FlContract::MaybeEvaluateRound(const SetupParams& params,
                                      uint64_t round,
                                      chain::ContractState* state) {
  if (state->Has(keys::RoundComplete(round))) {
    return Status::OK();  // Already evaluated.
  }
  // Per-owner union membership rather than summed set sizes (PR 9): a
  // slash both deletes a submitted update and writes a dropout record in
  // one transaction, so counting the sets independently could transiently
  // double-count an owner; membership is exact under any interleaving.
  BCFL_ASSIGN_OR_RETURN(auto retired, RetiredBefore(*state, round));
  size_t accounted = 0;
  size_t submitted = 0;
  for (uint32_t i = 0; i < params.num_owners; ++i) {
    const bool has_update = state->Has(keys::Update(round, i));
    if (has_update) ++submitted;
    if (has_update || state->Has(keys::Dropped(round, i)) ||
        retired.count(i) > 0) {
      ++accounted;
    }
  }
  if (accounted < params.num_owners) {
    return Status::OK();  // Round still in progress.
  }
  if (submitted == 0) {
    return Status::FailedPrecondition("no survivors: cannot evaluate round");
  }
  return EvaluateRound(params, round, state);
}

Status FlContract::EvaluateRound(const SetupParams& params, uint64_t round,
                                 chain::ContractState* state) {
  static auto& round_evals =
      obs::MetricsRegistry::Global().GetCounter("contract.round_evals");
  obs::ScopedSpan span(obs::Tracer::Global(), "round_eval", "contract");
  round_evals.Add();
  const size_t n = params.num_owners;
  const size_t rows = params.weight_rows;
  const size_t cols = params.weight_cols;
  secureagg::FixedPointCodec codec(
      static_cast<int>(params.fixed_point_bits));
  const secureagg::SecureAggregator aggregator = RosterAggregator(params);

  // Collect the revealed keys of every absent member: owners recovered
  // this round plus owners retired by earlier recoveries. Survivors mask
  // against the full group roster (they need not even know who retired),
  // so every absent member's residual masks are regenerated from its
  // on-chain key and removed — the same arithmetic either way.
  secureagg::UnmaskingInfo unmask;
  auto& dropped_keys = unmask.dropped_private_keys;
  for (const auto& key : state->KeysWithPrefix(keys::DroppedPrefix(round))) {
    BCFL_ASSIGN_OR_RETURN(uint32_t owner, keys::TrailingIndex(key));
    BCFL_ASSIGN_OR_RETURN(Bytes key_bytes, state->Get(key));
    BCFL_ASSIGN_OR_RETURN(dropped_keys[owner],
                          crypto::UInt256::FromBytes(key_bytes));
  }
  BCFL_ASSIGN_OR_RETURN(auto retired_keys, RetiredBefore(*state, round));
  dropped_keys.insert(retired_keys.begin(), retired_keys.end());

  // Derive the deterministic grouping for this round (Algorithm 1,
  // lines 1-2) — identical on every miner.
  BCFL_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                        params.RoundGroups(round));

  // Line 3: within-group ring sums over the *survivors*, through the
  // library's aggregator: pairwise masks between survivors cancel, and
  // each survivor<->dropped residual mask is regenerated from the
  // revealed key and removed. Decode the mean over survivors as the
  // group model. Group models live only in memory, never in the state:
  // a flagged evaluation must leave the state exactly as it found it
  // (plus the flag markers), or the eventual clean evaluation would
  // diverge from a run where the offender just crashed.
  struct PendingGroup {
    uint32_t index;
    std::vector<size_t> survivors;
    ml::Matrix model;
  };
  std::vector<PendingGroup> pending;
  pending.reserve(groups.size());
  {
    obs::ScopedSpan unmask_span(obs::Tracer::Global(), "mask_round",
                                "secureagg");
    for (size_t j = 0; j < groups.size(); ++j) {
      std::vector<secureagg::OwnerId> members;
      std::vector<size_t> survivors;
      std::map<secureagg::OwnerId, std::vector<uint64_t>> submissions;
      for (size_t member : groups[j]) {
        const auto id = static_cast<secureagg::OwnerId>(member);
        members.push_back(id);
        if (dropped_keys.count(id) > 0) continue;
        survivors.push_back(member);
        BCFL_ASSIGN_OR_RETURN(submissions[id],
                              GetU64Vector(*state, keys::Update(round, id)));
      }
      if (survivors.empty()) {
        // Every member dropped or retired: the group contributes no model
        // this round and GroupSV degrades to the surviving groups.
        continue;
      }
      BCFL_ASSIGN_OR_RETURN(
          std::vector<uint64_t> sum,
          aggregator.SumGroup(round, members, submissions, unmask));

      BCFL_ASSIGN_OR_RETURN(std::vector<double> mean,
                            codec.DecodeMean(sum, survivors.size()));
      ml::Matrix model(rows, cols);
      model.mutable_data() = std::move(mean);
      pending.push_back(
          {static_cast<uint32_t>(j), std::move(survivors), std::move(model)});
    }
  }

  // Norm gate (PR 9): a poisoned or mask-inconsistent submission survives
  // masking arithmetically, but it drags its group's decoded aggregate
  // far outside the honest envelope. Groups over the bound are flagged on
  // chain and the round is *held open* — no models, SVs or completion
  // marker are written — until an audit slashes the offender, at which
  // point the re-evaluation below runs clean over the survivors.
  if (params.update_norm_bound > 0.0) {
    bool any_flagged = false;
    for (const auto& group : pending) {
      double norm_sq = 0.0;
      for (double v : group.model.data()) norm_sq += v * v;
      const double norm = std::sqrt(norm_sq);
      if (norm > params.update_norm_bound) {
        PutDouble(state, keys::Flagged(round, group.index), norm);
        any_flagged = true;
      }
    }
    if (any_flagged) return Status::OK();
  }
  // Clean evaluation: flags from a pre-slash attempt are removed so the
  // final state matches a run where the offender simply crashed.
  const std::vector<std::string> flags =
      state->KeysWithPrefix(keys::FlaggedPrefix(round));
  for (const auto& key : flags) state->Delete(key);
  std::vector<std::vector<size_t>> surviving_groups;
  surviving_groups.reserve(pending.size());
  std::vector<ml::Matrix> group_models;
  group_models.reserve(pending.size());
  for (auto& group : pending) {
    surviving_groups.push_back(std::move(group.survivors));
    group_models.push_back(std::move(group.model));
  }

  // Lines 4-7 over the surviving membership: coalition models, group
  // SVs, per-user assignment. Dropped owners appear in no group and
  // score zero for the round.
  shapley::GroupShapley evaluator(
      n, {params.num_groups, params.seed_e, pool_}, utility_.get());
  BCFL_ASSIGN_OR_RETURN(shapley::GroupShapleyRound result,
                        evaluator.EvaluateRoundFromGroupModels(
                            surviving_groups, std::move(group_models)));

  for (uint32_t i = 0; i < n; ++i) {
    PutDouble(state, keys::RoundSv(round, i), result.user_values[i]);
    double total = 0.0;  // Absent before the owner's first evaluation.
    if (state->Has(keys::TotalSv(i))) {
      BCFL_ASSIGN_OR_RETURN(total, GetDouble(*state, keys::TotalSv(i)));
    }
    PutDouble(state, keys::TotalSv(i), total + result.user_values[i]);
  }

  // The completing transaction prunes what no later execution reads:
  // the round's submissions and the previous global model. The blocks
  // keep both. A round the gate held open keeps its submissions until
  // the next round completes: its audit may have accused several
  // members, and an accusation that lands after the first conviction
  // completed the round still needs its evidence.
  if (flags.empty()) {
    for (uint32_t i = 0; i < n; ++i) state->Delete(keys::Update(round, i));
  }
  PutMatrix(state, keys::GlobalModel(round), result.global_model);
  if (round > 0) {
    state->Delete(keys::GlobalModel(round - 1));
    for (uint32_t i = 0; i < n; ++i) state->Delete(keys::Update(round - 1, i));
  }
  ByteWriter marker;
  marker.WriteU8(1);
  state->Put(keys::RoundComplete(round), marker.Take());
  return Status::OK();
}

}  // namespace bcfl::core
