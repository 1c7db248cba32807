#include "core/slash_contract.h"

#include <cmath>

#include "obs/metrics.h"
#include "secureagg/fixed_point.h"
#include "shapley/group_sv.h"

namespace bcfl::core {

namespace {

/// (x, values) — the canonical wire form of one Shamir share, used both
/// inside the evidence payload and under the reveal signature.
void WriteShare(ByteWriter* writer, const crypto::ShamirShare& share) {
  writer->WriteU64(share.x);
  writer->WriteU64Vector(share.values);
}

Result<crypto::ShamirShare> ReadShare(ByteReader* reader) {
  crypto::ShamirShare share;
  BCFL_ASSIGN_OR_RETURN(share.x, reader->ReadU64());
  BCFL_ASSIGN_OR_RETURN(share.values, reader->ReadU64Vector());
  return share;
}

}  // namespace

SlashContract::SlashContract(std::shared_ptr<FlContract> fl)
    : fl_(std::move(fl)) {}

Bytes SlashContract::BadShareMessage(uint64_t round, uint32_t dealer,
                                     const crypto::ShamirShare& share) {
  ByteWriter writer;
  writer.WriteString("bcfl-bad-share");
  writer.WriteU64(round);
  writer.WriteU32(dealer);
  WriteShare(&writer, share);
  return writer.Take();
}

Bytes SlashContract::EncodeBadShare(uint64_t round, uint32_t offender,
                                    const crypto::UInt256& offender_key,
                                    uint32_t dealer,
                                    const crypto::ShamirShare& share,
                                    const crypto::SchnorrSignature& sig) {
  ByteWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(offender);
  writer.WriteU8(static_cast<uint8_t>(SlashKind::kBadShare));
  writer.WriteRaw(offender_key.ToBytes().data(), 32);
  writer.WriteU32(dealer);
  WriteShare(&writer, share);
  const Bytes sig_bytes = sig.ToBytes();
  writer.WriteRaw(sig_bytes.data(), sig_bytes.size());
  return writer.Take();
}

Bytes SlashContract::EncodeEquivocation(uint64_t round, uint32_t offender,
                                        const crypto::UInt256& offender_key,
                                        const chain::Transaction& first,
                                        const chain::Transaction& second) {
  ByteWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(offender);
  writer.WriteU8(static_cast<uint8_t>(SlashKind::kEquivocation));
  writer.WriteRaw(offender_key.ToBytes().data(), 32);
  writer.WriteBytes(first.Serialize());
  writer.WriteBytes(second.Serialize());
  return writer.Take();
}

Bytes SlashContract::EncodeNormViolation(uint64_t round, uint32_t offender,
                                         const crypto::UInt256& offender_key) {
  ByteWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(offender);
  writer.WriteU8(static_cast<uint8_t>(SlashKind::kNormViolation));
  writer.WriteRaw(offender_key.ToBytes().data(), 32);
  return writer.Take();
}

Status SlashContract::Execute(const chain::Transaction& tx,
                              chain::ContractState* state) {
  static auto& slash_execs =
      obs::MetricsRegistry::Global().GetCounter("contract.slash_execs");
  slash_execs.Add();
  if (tx.method() != "slash") {
    return Status::Unimplemented("unknown method: " + tx.method());
  }
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));

  ByteReader reader(tx.payload());
  BCFL_ASSIGN_OR_RETURN(uint64_t round, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(uint32_t offender, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(uint8_t kind_raw, reader.ReadU8());
  BCFL_ASSIGN_OR_RETURN(Bytes key_bytes, reader.ReadRaw(32));

  BCFL_RETURN_IF_ERROR(params.CheckSlot(round, offender));
  // Accusations come from registered owners (in this simulation, the
  // coordinator acting as the reporting watchdog).
  if (!params.IsOwnerKey(tx.sender())) {
    return Status::PermissionDenied("accusation must come from an owner");
  }
  if (state->Has(keys::Slashed(offender))) {
    return Status::AlreadyExists("owner already slashed");
  }
  if (state->Has(keys::Retired(offender))) {
    return Status::AlreadyExists("owner already retired; nothing to slash");
  }

  // Every conviction reveals the offender's DH private key so the round
  // can complete over the survivors: g^x == pub, same check as recovery.
  BCFL_ASSIGN_OR_RETURN(crypto::UInt256 offender_key,
                        crypto::UInt256::FromBytes(key_bytes));
  BCFL_RETURN_IF_ERROR(
      RosterAggregator(params).VerifyRevealedKey(offender, offender_key));

  const auto kind = static_cast<SlashKind>(kind_raw);
  switch (kind) {
    case SlashKind::kBadShare:
      BCFL_RETURN_IF_ERROR(VerifyBadShare(params, round, offender, &reader));
      break;
    case SlashKind::kEquivocation:
      BCFL_RETURN_IF_ERROR(
          VerifyEquivocation(params, round, offender, &reader));
      break;
    case SlashKind::kNormViolation:
      BCFL_RETURN_IF_ERROR(
          VerifyNormViolation(params, round, offender, offender_key, state));
      break;
    default:
      return Status::InvalidArgument("unknown slash kind");
  }
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in slash payload");
  }

  // Conviction: convert the offender into this round's dropout (so the
  // residual-mask arithmetic and SV degradation run exactly as a crash
  // would produce), retire it permanently, and record the slash so the
  // reward distribution burns its allocation.
  ConvictOwner(state, round, offender, offender_key, kind);

  // The conviction may have been the round's last missing accounting (or
  // removed the submission that kept a group flagged): re-check.
  return fl_->EvaluateIfComplete(round, state);
}

Status SlashContract::VerifyBadShare(const SetupParams& params, uint64_t round,
                                     uint32_t offender,
                                     ByteReader* reader) const {
  BCFL_ASSIGN_OR_RETURN(uint32_t dealer, reader->ReadU32());
  BCFL_ASSIGN_OR_RETURN(crypto::ShamirShare share, ReadShare(reader));
  BCFL_ASSIGN_OR_RETURN(Bytes sig_bytes, reader->ReadRaw(64));
  BCFL_ASSIGN_OR_RETURN(crypto::SchnorrSignature sig,
                        crypto::SchnorrSignature::FromBytes(sig_bytes));
  if (dealer >= params.num_owners) {
    return Status::InvalidArgument("unknown dealer id");
  }
  if (params.vss_commitments.size() != params.num_owners) {
    return Status::FailedPrecondition(
        "no VSS commitments on chain; bad-share evidence unverifiable");
  }
  // The signature binds the forged share to the offender's authenticated
  // reveal message — without it, anyone could frame anyone.
  const Bytes message = BadShareMessage(round, dealer, share);
  if (!schnorr_.Verify(params.schnorr_public_keys[offender], message, sig)) {
    return Status::PermissionDenied(
        "reveal signature does not bind the share to the offender");
  }
  // The share must sit in the offender's own slot of the dealer's split.
  if (share.x != static_cast<uint64_t>(offender) + 1) {
    return Status::InvalidArgument(
        "share coordinate is not the offender's slot");
  }
  BCFL_ASSIGN_OR_RETURN(
      crypto::VssCommitment commitment,
      crypto::VssCommitment::Deserialize(params.vss_commitments[dealer]));
  BCFL_ASSIGN_OR_RETURN(
      crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(
          crypto::ResolveThreshold(params.shamir_threshold, params.num_owners),
          params.num_owners));
  if (scheme.VerifyShare(share, commitment)) {
    return Status::PermissionDenied(
        "share verifies against the dealer's commitment; accusation is bogus");
  }
  return Status::OK();
}

Status SlashContract::VerifyEquivocation(const SetupParams& params,
                                         uint64_t round, uint32_t offender,
                                         ByteReader* reader) const {
  BCFL_ASSIGN_OR_RETURN(Bytes first_bytes, reader->ReadBytes());
  BCFL_ASSIGN_OR_RETURN(Bytes second_bytes, reader->ReadBytes());
  BCFL_ASSIGN_OR_RETURN(chain::Transaction first,
                        chain::Transaction::Deserialize(first_bytes));
  BCFL_ASSIGN_OR_RETURN(chain::Transaction second,
                        chain::Transaction::Deserialize(second_bytes));
  for (const chain::Transaction* tx : {&first, &second}) {
    if (tx->contract() != fl_->name() || tx->method() != "submit_update") {
      return Status::InvalidArgument(
          "equivocation evidence must be submit_update transactions");
    }
    if (tx->sender() != params.schnorr_public_keys[offender]) {
      return Status::PermissionDenied(
          "evidence transaction not signed by the offender");
    }
    if (!tx->VerifySignature(schnorr_)) {
      return Status::PermissionDenied("evidence transaction badly signed");
    }
    ByteReader payload(tx->payload());
    BCFL_ASSIGN_OR_RETURN(uint64_t tx_round, payload.ReadU64());
    BCFL_ASSIGN_OR_RETURN(uint32_t tx_owner, payload.ReadU32());
    if (tx_round != round || tx_owner != offender) {
      return Status::InvalidArgument(
          "evidence transaction targets a different round or owner");
    }
  }
  if (first.payload() == second.payload()) {
    return Status::InvalidArgument(
        "evidence transactions agree; no equivocation");
  }
  return Status::OK();
}

Result<double> SlashContract::UnmaskedUpdateNorm(
    const SetupParams& params, uint64_t round, uint32_t owner,
    const crypto::UInt256& owner_key, const chain::ContractState& state) {
  BCFL_ASSIGN_OR_RETURN(std::vector<uint64_t> masked,
                        GetU64Vector(state, keys::Update(round, owner)));

  // Re-derive the owner's group and strip its pairwise masks with the
  // revealed key.
  BCFL_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                        params.RoundGroups(round));
  BCFL_ASSIGN_OR_RETURN(const size_t group, shapley::GroupOf(groups, owner));
  const std::vector<secureagg::OwnerId> members(groups[group].begin(),
                                                groups[group].end());
  BCFL_ASSIGN_OR_RETURN(
      std::vector<uint64_t> encoded,
      RosterAggregator(params).UnmaskOwner(round, owner, owner_key, members,
                                           std::move(masked)));
  secureagg::FixedPointCodec codec(static_cast<int>(params.fixed_point_bits));
  BCFL_ASSIGN_OR_RETURN(std::vector<double> decoded,
                        codec.DecodeMean(encoded, 1));
  double norm_sq = 0.0;
  for (double v : decoded) norm_sq += v * v;
  return std::sqrt(norm_sq);
}

Status SlashContract::VerifyNormViolation(const SetupParams& params,
                                          uint64_t round, uint32_t offender,
                                          const crypto::UInt256& offender_key,
                                          chain::ContractState* state) const {
  if (params.update_norm_bound <= 0.0) {
    return Status::FailedPrecondition("no norm bound agreed at setup");
  }
  // The evidence is the offender's masked update, which evaluation
  // prunes (a round the norm gate held open keeps it until the next
  // round completes).
  if (!state->Has(keys::Update(round, offender)) &&
      state->Has(keys::RoundComplete(round))) {
    return Status::FailedPrecondition(
        "round already evaluated; its updates are pruned");
  }
  BCFL_ASSIGN_OR_RETURN(
      double norm,
      UnmaskedUpdateNorm(params, round, offender, offender_key, *state));
  if (norm <= params.update_norm_bound) {
    return Status::PermissionDenied(
        "unmasked update is within the norm bound; accusation is bogus");
  }
  return Status::OK();
}

}  // namespace bcfl::core
