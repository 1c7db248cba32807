#include "core/params.h"

#include <algorithm>

#include "shapley/group_sv.h"

namespace bcfl::core {

namespace {

// A key roster: u32 count, then 32 bytes per key.
void WriteKeys(ByteWriter* writer, const std::vector<crypto::UInt256>& keys) {
  writer->WriteU32(static_cast<uint32_t>(keys.size()));
  for (const auto& key : keys) writer->WriteRaw(key.ToBytes().data(), 32);
}

Result<std::vector<crypto::UInt256>> ReadKeys(ByteReader* reader) {
  BCFL_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  if (static_cast<uint64_t>(count) * 32 > reader->remaining()) {
    return Status::Corruption("key count exceeds payload");
  }
  std::vector<crypto::UInt256> keys(count);
  for (auto& key : keys) {
    BCFL_ASSIGN_OR_RETURN(Bytes raw, reader->ReadRaw(32));
    BCFL_ASSIGN_OR_RETURN(key, crypto::UInt256::FromBytes(raw));
  }
  return keys;
}

}  // namespace

Bytes SetupParams::Serialize() const {
  ByteWriter writer;
  writer.WriteU32(num_owners);
  writer.WriteU32(rounds);
  writer.WriteU32(num_groups);
  writer.WriteU64(seed_e);
  writer.WriteU32(fixed_point_bits);
  writer.WriteU32(weight_rows);
  writer.WriteU32(weight_cols);
  WriteKeys(&writer, schnorr_public_keys);
  WriteKeys(&writer, dh_public_keys);
  writer.WriteU32(shamir_threshold);
  writer.WriteDouble(update_norm_bound);
  writer.WriteU32(static_cast<uint32_t>(vss_commitments.size()));
  for (const auto& commitment : vss_commitments) {
    writer.WriteBytes(commitment);
  }
  return writer.Take();
}

Result<SetupParams> SetupParams::Deserialize(const Bytes& bytes) {
  ByteReader reader(bytes);
  SetupParams params;
  BCFL_ASSIGN_OR_RETURN(params.num_owners, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.rounds, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.num_groups, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.seed_e, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(params.fixed_point_bits, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.weight_rows, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.weight_cols, reader.ReadU32());

  BCFL_ASSIGN_OR_RETURN(params.schnorr_public_keys, ReadKeys(&reader));
  BCFL_ASSIGN_OR_RETURN(params.dh_public_keys, ReadKeys(&reader));
  BCFL_ASSIGN_OR_RETURN(params.shamir_threshold, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(params.update_norm_bound, reader.ReadDouble());
  BCFL_ASSIGN_OR_RETURN(uint32_t vss_count, reader.ReadU32());
  if (static_cast<uint64_t>(vss_count) * 8 > reader.remaining()) {
    return Status::Corruption("vss commitment count exceeds payload");
  }
  params.vss_commitments.reserve(vss_count);
  for (uint32_t i = 0; i < vss_count; ++i) {
    BCFL_ASSIGN_OR_RETURN(Bytes raw, reader.ReadBytes());
    params.vss_commitments.push_back(std::move(raw));
  }
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after setup params");
  }
  BCFL_RETURN_IF_ERROR(params.Validate());
  return params;
}

Status SetupParams::Validate() const {
  if (num_owners == 0) {
    return Status::InvalidArgument("num_owners must be >= 1");
  }
  if (num_groups == 0 || num_groups > num_owners) {
    return Status::InvalidArgument("num_groups must be in [1, num_owners]");
  }
  if (num_groups > 20) {
    return Status::InvalidArgument("num_groups > 20 is intractable");
  }
  if (rounds == 0) {
    return Status::InvalidArgument("rounds must be >= 1");
  }
  if (weight_rows == 0 || weight_cols == 0) {
    return Status::InvalidArgument("model shape must be non-zero");
  }
  if (schnorr_public_keys.size() != num_owners ||
      dh_public_keys.size() != num_owners) {
    return Status::InvalidArgument(
        "key roster size does not match num_owners");
  }
  if (shamir_threshold > num_owners) {
    return Status::InvalidArgument("shamir_threshold exceeds num_owners");
  }
  if (update_norm_bound < 0.0) {
    return Status::InvalidArgument("update_norm_bound must be >= 0");
  }
  if (!vss_commitments.empty() && vss_commitments.size() != num_owners) {
    return Status::InvalidArgument(
        "vss commitment roster size does not match num_owners");
  }
  return Status::OK();
}

Status SetupParams::CheckSlot(uint64_t round, uint32_t owner) const {
  if (owner >= num_owners) return Status::InvalidArgument("unknown owner id");
  if (round >= rounds) {
    return Status::InvalidArgument("round beyond the agreed horizon");
  }
  return Status::OK();
}

bool SetupParams::IsOwnerKey(const crypto::UInt256& key) const {
  return std::find(schnorr_public_keys.begin(), schnorr_public_keys.end(),
                   key) != schnorr_public_keys.end();
}

Result<std::vector<std::vector<size_t>>> SetupParams::RoundGroups(
    uint64_t round) const {
  return shapley::GroupUsers(
      shapley::PermutationFromSeed(seed_e, round, num_owners), num_groups);
}

}  // namespace bcfl::core
