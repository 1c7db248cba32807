#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chain/block.h"
#include "common/result.h"

namespace bcfl::chain {

/// Append-only durable block log — the chain's only persistence format.
///
/// File layout:
///   magic "BCLG" (4 bytes) | format version (u32)
///   then one record per committed block, heights 1, 2, 3, ... :
///     payload length (u32) | CRC32C(payload) (u32) | payload
///   where payload is `Block::Serialize()`. Genesis (height 0) is
///   deterministic and never logged.
///
/// `Append` writes one record and fsyncs before returning, so a commit
/// acknowledged to the caller survives `kill -9` and power loss — and it
/// is O(1 block), never a rewrite of the chain. `Open` scans the file and
/// *truncates to the last valid record*: a torn tail (partial record from
/// a crash mid-write) is recovered by dropping the tail, while corruption
/// before the tail (bit flips in settled records, bad header magic) fails
/// closed with Corruption — the log never half-loads a record. A header
/// version other than the current one (3) fails closed with
/// Unimplemented before any record is read.
class BlockLog {
 public:
  /// What the open-time scan found.
  struct OpenStats {
    uint64_t records_recovered = 0;  ///< Valid records kept.
    uint64_t bytes_truncated = 0;    ///< Torn-tail bytes dropped.
    bool tail_truncated = false;
  };

  /// Opens (creating if absent) the log at `path`, scanning and
  /// validating every record. After Open, `TakeRecoveredBlocks` yields
  /// the settled blocks once and `Append` continues from the tail.
  static Result<BlockLog> Open(const std::string& path);

  BlockLog() = default;
  ~BlockLog();
  BlockLog(BlockLog&& other) noexcept;
  BlockLog& operator=(BlockLog&& other) noexcept;
  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  const OpenStats& open_stats() const { return open_stats_; }

  /// The blocks recovered by Open (heights 1..tip), moved out — the log
  /// does not hold an O(chain) copy past this call.
  std::vector<Block> TakeRecoveredBlocks();

  /// Height of the last logged record (0 = only genesis exists).
  uint64_t tip_height() const { return tip_height_; }

  /// Appends one committed block (must be height tip_height()+1) and
  /// fsyncs. O(1 block).
  Status Append(const Block& block);

  /// Drops every record above `height` (used on resume: blocks past the
  /// checkpoint are regenerated bit-identically by the replayed run).
  Status TruncateToHeight(uint64_t height);

  void Close();

 private:
  Status ScanExisting();
  Status WriteHeader();

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t tip_height_ = 0;
  /// End-of-file byte offset after each valid record, indexed by
  /// height-1; record_ends_[i] is where a truncate-to-height(i+1) cuts.
  std::vector<uint64_t> record_ends_;
  std::vector<Block> recovered_;
  OpenStats open_stats_;
};

}  // namespace bcfl::chain
