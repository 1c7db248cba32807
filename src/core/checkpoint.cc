#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/fsync_util.h"

namespace bcfl::core {

namespace {

constexpr char kMagic[4] = {'B', 'C', 'K', 'P'};
/// Version 2: the checkpointed chain tip commits to the leaf-digest state
/// root ("bcfl-state-v2").
constexpr uint32_t kVersion = 2;

void WriteU32Map(ByteWriter* writer,
                 const std::map<uint32_t, uint64_t>& map) {
  writer->WriteU32(static_cast<uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    writer->WriteU32(key);
    writer->WriteU64(value);
  }
}

Result<std::map<uint32_t, uint64_t>> ReadU32Map(ByteReader* reader) {
  BCFL_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  std::map<uint32_t, uint64_t> map;
  for (uint32_t i = 0; i < count; ++i) {
    BCFL_ASSIGN_OR_RETURN(uint32_t key, reader->ReadU32());
    BCFL_ASSIGN_OR_RETURN(uint64_t value, reader->ReadU64());
    map[key] = value;
  }
  return map;
}

void WriteRngState(ByteWriter* writer, const Xoshiro256::State& state) {
  for (uint64_t word : state.s) writer->WriteU64(word);
  writer->WriteU8(state.has_cached_gaussian ? 1 : 0);
  writer->WriteDouble(state.cached_gaussian);
}

Result<Xoshiro256::State> ReadRngState(ByteReader* reader) {
  Xoshiro256::State state;
  for (uint64_t& word : state.s) {
    BCFL_ASSIGN_OR_RETURN(word, reader->ReadU64());
  }
  BCFL_ASSIGN_OR_RETURN(uint8_t cached, reader->ReadU8());
  state.has_cached_gaussian = cached != 0;
  BCFL_ASSIGN_OR_RETURN(state.cached_gaussian, reader->ReadDouble());
  return state;
}

}  // namespace

Bytes SessionCheckpoint::Serialize() const {
  ByteWriter writer;
  writer.WriteU64(config_fingerprint);
  writer.WriteU64(next_round);

  WriteRngState(&writer, session_rng);
  WriteRngState(&writer, network.rng);
  writer.WriteU64(network.next_seq);
  writer.WriteU64(network.clock_us);
  writer.WriteU32(static_cast<uint32_t>(network.drop_streams.size()));
  for (const auto& [from, to, state] : network.drop_streams) {
    writer.WriteU32(from);
    writer.WriteU32(to);
    writer.WriteU64(state);
  }

  writer.WriteU64(tip_height);
  writer.WriteRaw(tip_hash.data(), tip_hash.size());
  WriteU32Map(&writer, miner_heights);

  global_weights.Serialize(&writer);
  writer.WriteU32(static_cast<uint32_t>(per_round_sv.size()));
  for (const auto& sv : per_round_sv) writer.WriteDoubleVector(sv);
  writer.WriteDoubleVector(round_accuracies);
  writer.WriteU64(blocks_committed);
  writer.WriteU64(total_transactions);
  writer.WriteU64(recover_transactions);
  writer.WriteU64(submission_retries);
  writer.WriteU64(slash_transactions);
  WriteU32Map(&writer, retired_at);
  WriteU32Map(&writer, slashed_at);
  writer.WriteU64(ledger_rounds);
  return writer.Take();
}

Result<SessionCheckpoint> SessionCheckpoint::Deserialize(const Bytes& bytes) {
  ByteReader reader(bytes);
  SessionCheckpoint cp;
  BCFL_ASSIGN_OR_RETURN(cp.config_fingerprint, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.next_round, reader.ReadU64());

  BCFL_ASSIGN_OR_RETURN(cp.session_rng, ReadRngState(&reader));
  BCFL_ASSIGN_OR_RETURN(cp.network.rng, ReadRngState(&reader));
  BCFL_ASSIGN_OR_RETURN(cp.network.next_seq, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.network.clock_us, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(uint32_t streams, reader.ReadU32());
  for (uint32_t i = 0; i < streams; ++i) {
    BCFL_ASSIGN_OR_RETURN(uint32_t from, reader.ReadU32());
    BCFL_ASSIGN_OR_RETURN(uint32_t to, reader.ReadU32());
    BCFL_ASSIGN_OR_RETURN(uint64_t state, reader.ReadU64());
    cp.network.drop_streams.emplace_back(from, to, state);
  }

  BCFL_ASSIGN_OR_RETURN(cp.tip_height, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(Bytes hash, reader.ReadRaw(cp.tip_hash.size()));
  std::copy(hash.begin(), hash.end(), cp.tip_hash.begin());
  BCFL_ASSIGN_OR_RETURN(cp.miner_heights, ReadU32Map(&reader));

  BCFL_ASSIGN_OR_RETURN(cp.global_weights, ml::Matrix::Deserialize(&reader));
  BCFL_ASSIGN_OR_RETURN(uint32_t sv_rounds, reader.ReadU32());
  for (uint32_t i = 0; i < sv_rounds; ++i) {
    BCFL_ASSIGN_OR_RETURN(std::vector<double> sv, reader.ReadDoubleVector());
    cp.per_round_sv.push_back(std::move(sv));
  }
  BCFL_ASSIGN_OR_RETURN(cp.round_accuracies, reader.ReadDoubleVector());
  BCFL_ASSIGN_OR_RETURN(cp.blocks_committed, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.total_transactions, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.recover_transactions, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.submission_retries, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.slash_transactions, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(cp.retired_at, ReadU32Map(&reader));
  BCFL_ASSIGN_OR_RETURN(cp.slashed_at, ReadU32Map(&reader));
  BCFL_ASSIGN_OR_RETURN(cp.ledger_rounds, reader.ReadU64());
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after checkpoint payload");
  }
  return cp;
}

Status SaveCheckpoint(const SessionCheckpoint& checkpoint,
                      const std::string& path) {
  Bytes payload = checkpoint.Serialize();
  ByteWriter writer;
  writer.WriteRaw(reinterpret_cast<const uint8_t*>(kMagic), sizeof(kMagic));
  writer.WriteU32(kVersion);
  writer.WriteU32(static_cast<uint32_t>(payload.size()));
  writer.WriteU32(Crc32c(payload.data(), payload.size()));
  writer.WriteRaw(payload.data(), payload.size());

  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open checkpoint for writing: " + tmp_path);
  }
  const Bytes& buffer = writer.buffer();
  const size_t written = std::fwrite(buffer.data(), 1, buffer.size(), file);
  Status sync = written == buffer.size() ? FlushAndSync(file)
                                         : Status::Internal("short write");
  const int close_rc = std::fclose(file);
  if (written != buffer.size() || !sync.ok() || close_rc != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("short write while saving checkpoint");
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::Internal("checkpoint rename failed: " + ec.message());
  }
  return SyncParentDir(path);
}

Result<SessionCheckpoint> LoadCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no checkpoint at " + path);
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::Internal("cannot seek checkpoint");
  }
  long size = std::ftell(file);
  if (size < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::Internal("cannot stat checkpoint");
  }
  Bytes buffer(static_cast<size_t>(size));
  Status read = buffer.empty()
                    ? Status::Corruption("checkpoint file is empty")
                    : ReadExact(file, buffer.data(), buffer.size());
  std::fclose(file);
  if (!read.ok()) {
    return Status::Corruption("short read while loading checkpoint: " +
                              std::string(read.message()));
  }

  ByteReader reader(buffer);
  BCFL_ASSIGN_OR_RETURN(Bytes magic, reader.ReadRaw(sizeof(kMagic)));
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const uint8_t*>(kMagic))) {
    return Status::Corruption("bad magic: not a BCFL checkpoint");
  }
  BCFL_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kVersion) {
    return Status::Unimplemented("unsupported checkpoint version " +
                                 std::to_string(version));
  }
  BCFL_ASSIGN_OR_RETURN(uint32_t length, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(uint32_t crc, reader.ReadU32());
  BCFL_ASSIGN_OR_RETURN(Bytes payload, reader.ReadRaw(length));
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after checkpoint");
  }
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::Corruption("checkpoint CRC mismatch — refusing to load");
  }
  Result<SessionCheckpoint> decoded = SessionCheckpoint::Deserialize(payload);
  if (!decoded.ok()) {
    return decoded.status().WithContext("decoding checkpoint " + path);
  }
  return decoded;
}

}  // namespace bcfl::core
