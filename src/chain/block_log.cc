#include "chain/block_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/fsync_util.h"
#include "obs/metrics.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace bcfl::chain {

namespace {

constexpr char kLogMagic[4] = {'B', 'C', 'L', 'G'};
/// Version 3: headers commit to the roots of a state that prunes each
/// evaluated round's updates and superseded global model; a version-2 log
/// committed to the unpruned roots, and version 1 to a pre-leaf-digest
/// root ("bcfl-state-v2"). Neither can replay.
constexpr uint32_t kLogVersion = 3;
constexpr size_t kHeaderSize = 8;   // magic + version.
constexpr size_t kRecordHeader = 8; // length + crc32c.
/// A length field beyond this is treated as torn garbage, not a record.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

Status TruncateFile(std::FILE* file, uint64_t offset) {
  if (std::fflush(file) != 0) return Status::Internal("fflush failed");
#if defined(_WIN32)
  return Status::Unimplemented("truncate unsupported on this platform");
#else
  if (::ftruncate(fileno(file), static_cast<off_t>(offset)) != 0) {
    return Status::Internal("ftruncate failed");
  }
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::Internal("seek after truncate failed");
  }
  return Status::OK();
#endif
}

}  // namespace

Result<BlockLog> BlockLog::Open(const std::string& path) {
  BlockLog log;
  log.path_ = path;

  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    // Fresh log: create, write the header, make the creation durable.
    file = std::fopen(path.c_str(), "w+b");
    if (file == nullptr) {
      return Status::Internal("cannot create block log at " + path);
    }
    log.file_ = file;
    BCFL_RETURN_IF_ERROR(log.WriteHeader());
    BCFL_RETURN_IF_ERROR(SyncParentDir(path));
    return log;
  }

  log.file_ = file;
  BCFL_RETURN_IF_ERROR(log.ScanExisting());
  return log;
}

Status BlockLog::WriteHeader() {
  ByteWriter writer;
  writer.WriteRaw(reinterpret_cast<const uint8_t*>(kLogMagic),
                  sizeof(kLogMagic));
  writer.WriteU32(kLogVersion);
  const Bytes& buf = writer.buffer();
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return Status::Internal("short write of block log header");
  }
  return FlushAndSync(file_);
}

Status BlockLog::ScanExisting() {
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek block log");
  }
  long raw_size = std::ftell(file_);
  if (raw_size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot stat block log");
  }
  const uint64_t size = static_cast<uint64_t>(raw_size);
  if (size == 0) {
    // Created but crashed before the header landed: rewrite it.
    return WriteHeader();
  }
  if (size < kHeaderSize) {
    return Status::Corruption("block log shorter than its header");
  }

  Bytes buffer(size);
  BCFL_RETURN_IF_ERROR(ReadExact(file_, buffer.data(), buffer.size()));

  // Header fails closed: a log with the wrong magic or version is not a
  // torn tail, it is the wrong file.
  ByteReader header(buffer);
  BCFL_ASSIGN_OR_RETURN(Bytes magic, header.ReadRaw(sizeof(kLogMagic)));
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const uint8_t*>(kLogMagic))) {
    return Status::Corruption("bad magic: not a BCFL block log");
  }
  BCFL_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version != kLogVersion) {
    return Status::Unimplemented("unsupported block log version " +
                                 std::to_string(version));
  }

  // Record scan: keep the longest valid prefix, drop everything after
  // the first record that fails length/CRC/decode/height checks.
  uint64_t good_end = kHeaderSize;
  uint64_t offset = kHeaderSize;
  uint64_t expected_height = 1;
  auto read_u32 = [&buffer](uint64_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(buffer[at + i]) << (8 * i);
    }
    return v;
  };
  while (offset + kRecordHeader <= size) {
    const uint32_t length = read_u32(offset);
    const uint32_t crc = read_u32(offset + 4);
    if (length > kMaxRecordBytes ||
        offset + kRecordHeader + length > size) {
      break;  // Torn length or payload cut off by the crash.
    }
    const uint8_t* payload = buffer.data() + offset + kRecordHeader;
    if (Crc32c(payload, length) != crc) break;
    Bytes payload_bytes(payload, payload + length);
    auto block = Block::Deserialize(payload_bytes);
    if (!block.ok()) break;
    if (block->header.height != expected_height) break;
    recovered_.push_back(std::move(*block));
    offset += kRecordHeader + length;
    good_end = offset;
    record_ends_.push_back(good_end);
    ++expected_height;
  }

  tip_height_ = expected_height - 1;
  open_stats_.records_recovered = recovered_.size();
  if (good_end < size) {
    open_stats_.tail_truncated = true;
    open_stats_.bytes_truncated = size - good_end;
    BCFL_RETURN_IF_ERROR(TruncateFile(file_, good_end));
    BCFL_RETURN_IF_ERROR(FlushAndSync(file_));
    obs::MetricsRegistry::Global()
        .GetCounter("chain.blocklog.torn_tails_recovered")
        .Add();
  } else if (std::fseek(file_, static_cast<long>(good_end), SEEK_SET) != 0) {
    return Status::Internal("cannot seek to block log tail");
  }
  return Status::OK();
}

std::vector<Block> BlockLog::TakeRecoveredBlocks() {
  return std::exchange(recovered_, {});
}

Status BlockLog::Append(const Block& block) {
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");
  if (block.header.height != tip_height_ + 1) {
    return Status::InvalidArgument(
        "block log append out of order: got height " +
        std::to_string(block.header.height) + ", expected " +
        std::to_string(tip_height_ + 1));
  }
  Bytes payload = block.Serialize();
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(payload.size()));
  writer.WriteU32(Crc32c(payload.data(), payload.size()));
  writer.WriteRaw(payload.data(), payload.size());
  const Bytes& record = writer.buffer();
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::Internal("short write appending block " +
                            std::to_string(block.header.height));
  }
  BCFL_RETURN_IF_ERROR(FlushAndSync(file_));
  uint64_t end = (record_ends_.empty() ? kHeaderSize : record_ends_.back()) +
                 record.size();
  record_ends_.push_back(end);
  ++tip_height_;
  obs::MetricsRegistry::Global().GetCounter("chain.blocklog.appends").Add();
  return Status::OK();
}

Status BlockLog::TruncateToHeight(uint64_t height) {
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");
  if (height > tip_height_) {
    return Status::InvalidArgument(
        "cannot truncate block log to height " + std::to_string(height) +
        ": tip is " + std::to_string(tip_height_));
  }
  if (height == tip_height_) return Status::OK();
  uint64_t offset = (height == 0) ? kHeaderSize : record_ends_[height - 1];
  BCFL_RETURN_IF_ERROR(TruncateFile(file_, offset));
  BCFL_RETURN_IF_ERROR(FlushAndSync(file_));
  record_ends_.resize(height);
  if (recovered_.size() > height) recovered_.resize(height);
  tip_height_ = height;
  return Status::OK();
}

void BlockLog::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

BlockLog::~BlockLog() { Close(); }

BlockLog::BlockLog(BlockLog&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)),
      tip_height_(other.tip_height_),
      record_ends_(std::move(other.record_ends_)),
      recovered_(std::move(other.recovered_)),
      open_stats_(other.open_stats_) {}

BlockLog& BlockLog::operator=(BlockLog&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
    tip_height_ = other.tip_height_;
    record_ends_ = std::move(other.record_ends_);
    recovered_ = std::move(other.recovered_);
    open_stats_ = other.open_stats_;
  }
  return *this;
}

}  // namespace bcfl::chain
