#include "core/state_keys.h"

#include <charconv>
#include <cstdio>

namespace bcfl::core {

namespace keys {

namespace {

std::string Pad(uint64_t value) {
  char buf[21];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string SetupParams() { return "setup/params"; }

std::string Update(uint64_t round, uint32_t owner) {
  return "update/" + Pad(round) + "/" + Pad(owner);
}

std::string GroupModel(uint64_t round, uint32_t group) {
  return "group_model/" + Pad(round) + "/" + Pad(group);
}

std::string GlobalModel(uint64_t round) { return "global/" + Pad(round); }

std::string RoundSv(uint64_t round, uint32_t owner) {
  return "sv/" + Pad(round) + "/" + Pad(owner);
}

std::string TotalSv(uint32_t owner) { return "sv_total/" + Pad(owner); }

std::string RoundComplete(uint64_t round) {
  return "round_complete/" + Pad(round);
}

std::string Dropped(uint64_t round, uint32_t owner) {
  return "dropped/" + Pad(round) + "/" + Pad(owner);
}

std::string DroppedPrefix(uint64_t round) {
  return "dropped/" + Pad(round) + "/";
}

std::string Retired(uint32_t owner) { return "retired/" + Pad(owner); }

std::string RetiredPrefix() { return "retired/"; }

std::string Slashed(uint32_t owner) { return "slashed/" + Pad(owner); }

std::string SlashedPrefix() { return "slashed/"; }

std::string Flagged(uint64_t round, uint32_t group) {
  return "flagged/" + Pad(round) + "/" + Pad(group);
}

std::string FlaggedPrefix(uint64_t round) {
  return "flagged/" + Pad(round) + "/";
}

std::string RewardPool() { return "reward/pool"; }

std::string RewardDistributed() { return "reward/distributed"; }

std::string RewardAllocation(uint32_t owner) {
  return "reward/allocation/" + Pad(owner);
}

std::string RewardClaimed(uint32_t owner) {
  return "reward/claimed/" + Pad(owner);
}

std::string RewardBurned() { return "reward/burned"; }

Result<uint32_t> TrailingIndex(const std::string& key) {
  const size_t slash = key.rfind('/');
  const char* first = key.data() + (slash == std::string::npos ? 0 : slash + 1);
  const char* last = key.data() + key.size();
  uint32_t index = 0;
  const auto [end, ec] = std::from_chars(first, last, index);
  if (ec != std::errc() || end != last) {
    return Status::Corruption("no owner or group index at the end of key " +
                              key);
  }
  return index;
}

}  // namespace keys

namespace {

/// Decodes the value at `key` with `decode`, which must consume it all.
template <typename T>
Result<T> DecodeExact(const chain::ContractState& state,
                      const std::string& key,
                      Result<T> (*decode)(ByteReader*)) {
  BCFL_ASSIGN_OR_RETURN(Bytes raw, state.Get(key));
  ByteReader reader(raw);
  Result<T> value = decode(&reader);
  if (!value.ok()) return value.status().WithContext(key);
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in the value of " + key);
  }
  return value;
}

/// Decodes every record under `prefix` with `decode`, by the owner index
/// that ends its key.
template <typename T>
Result<std::map<uint32_t, T>> DecodeOwnerRecords(
    const chain::ContractState& state, const std::string& prefix,
    Result<T> (*decode)(ByteReader*)) {
  std::map<uint32_t, T> records;
  for (const auto& key : state.KeysWithPrefix(prefix)) {
    BCFL_ASSIGN_OR_RETURN(uint32_t owner, keys::TrailingIndex(key));
    BCFL_ASSIGN_OR_RETURN(records[owner], DecodeExact(state, key, decode));
  }
  return records;
}

Result<Retirement> DecodeRetirement(ByteReader* reader) {
  Retirement retirement;
  BCFL_ASSIGN_OR_RETURN(retirement.round, reader->ReadU64());
  BCFL_ASSIGN_OR_RETURN(Bytes key, reader->ReadRaw(32));
  BCFL_ASSIGN_OR_RETURN(retirement.key, crypto::UInt256::FromBytes(key));
  return retirement;
}

Result<uint64_t> DecodeConvictionRound(ByteReader* reader) {
  BCFL_ASSIGN_OR_RETURN(uint64_t round, reader->ReadU64());
  BCFL_ASSIGN_OR_RETURN(uint8_t kind, reader->ReadU8());
  if (kind == 0 || kind > static_cast<uint8_t>(SlashKind::kNormViolation)) {
    return Status::Corruption("unknown slash evidence kind");
  }
  return round;
}

}  // namespace

void PutDouble(chain::ContractState* state, const std::string& key,
               double value) {
  ByteWriter writer;
  writer.WriteDouble(value);
  state->Put(key, writer.Take());
}

Result<double> GetDouble(const chain::ContractState& state,
                         const std::string& key) {
  return DecodeExact<double>(
      state, key, [](ByteReader* reader) { return reader->ReadDouble(); });
}

void PutMatrix(chain::ContractState* state, const std::string& key,
               const ml::Matrix& m) {
  ByteWriter writer;
  m.Serialize(&writer);
  state->Put(key, writer.Take());
}

Result<ml::Matrix> GetMatrix(const chain::ContractState& state,
                             const std::string& key) {
  return DecodeExact<ml::Matrix>(state, key, &ml::Matrix::Deserialize);
}

void PutU64Vector(chain::ContractState* state, const std::string& key,
                  const std::vector<uint64_t>& v) {
  ByteWriter writer;
  writer.WriteU64Vector(v);
  state->Put(key, writer.Take());
}

Result<std::vector<uint64_t>> GetU64Vector(const chain::ContractState& state,
                                           const std::string& key) {
  return DecodeExact<std::vector<uint64_t>>(
      state, key, [](ByteReader* reader) { return reader->ReadU64Vector(); });
}

void PutU64(chain::ContractState* state, const std::string& key,
            uint64_t value) {
  ByteWriter writer;
  writer.WriteU64(value);
  state->Put(key, writer.Take());
}

Result<uint64_t> GetU64OrZero(const chain::ContractState& state,
                              const std::string& key) {
  if (!state.Has(key)) return uint64_t{0};
  return DecodeExact<uint64_t>(
      state, key, [](ByteReader* reader) { return reader->ReadU64(); });
}

Result<SetupParams> LoadSetupParams(const chain::ContractState& state) {
  auto raw = state.Get(keys::SetupParams());
  if (!raw.ok()) return Status::FailedPrecondition("setup has not run");
  return SetupParams::Deserialize(*raw);
}

void RetireOwner(chain::ContractState* state, uint64_t round, uint32_t owner,
                 const crypto::UInt256& key) {
  const Bytes key_bytes = key.ToBytes();
  state->Put(keys::Dropped(round, owner), key_bytes);
  ByteWriter retired;
  retired.WriteU64(round);
  retired.WriteRaw(key_bytes.data(), key_bytes.size());
  state->Put(keys::Retired(owner), retired.Take());
}

void ConvictOwner(chain::ContractState* state, uint64_t round,
                  uint32_t owner, const crypto::UInt256& key, SlashKind kind) {
  state->Delete(keys::Update(round, owner));
  RetireOwner(state, round, owner, key);
  ByteWriter slashed;
  slashed.WriteU64(round);
  slashed.WriteU8(static_cast<uint8_t>(kind));
  state->Put(keys::Slashed(owner), slashed.Take());
}

Result<std::map<uint32_t, Retirement>> GetRetirements(
    const chain::ContractState& state) {
  return DecodeOwnerRecords(state, keys::RetiredPrefix(), &DecodeRetirement);
}

Result<std::map<uint32_t, crypto::UInt256>> RetiredBefore(
    const chain::ContractState& state, uint64_t round) {
  BCFL_ASSIGN_OR_RETURN(auto retirements, GetRetirements(state));
  std::map<uint32_t, crypto::UInt256> retired;
  for (const auto& [owner, retirement] : retirements) {
    if (retirement.round < round) retired[owner] = retirement.key;
  }
  return retired;
}

Result<std::map<uint32_t, uint64_t>> GetConvictionRounds(
    const chain::ContractState& state) {
  return DecodeOwnerRecords(state, keys::SlashedPrefix(),
                            &DecodeConvictionRound);
}

}  // namespace bcfl::core
