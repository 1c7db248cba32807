#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "net/network.h"

namespace bcfl::core {

/// What a coordinator needs, beside the durable block log next to it, to
/// resume a killed session bit-identically from the start of
/// `next_round`. The replayed chain tells the rest: the SVs, the
/// global model, retirements, convictions and the block and transaction
/// counts (`ReadRunResult`). What it cannot tell is kept here:
///
///  - the session RNG and the simulated network's RNG/clock/sequence
///    state, so every later random draw and timestamp matches;
///  - the canonical chain tip and each replica's committed height, so
///    the block-log replay reconstructs exactly the per-miner lag the
///    crashed run had (offline replicas catch up in-session, as they
///    would have);
///  - the two results no block records: the per-round test accuracies
///    and the retried submission attempts.
///
/// On disk the serialized payload rides behind a magic/version header
/// and a CRC32C, and `SaveCheckpoint` writes atomically (tmp + fsync +
/// rename + directory fsync): a crash mid-checkpoint leaves the previous
/// checkpoint intact, and a flipped byte fails the load closed.
struct SessionCheckpoint {
  /// Hash of every determinism-relevant config knob; resume refuses a
  /// checkpoint taken under a different configuration.
  uint64_t config_fingerprint = 0;
  uint64_t next_round = 0;

  Xoshiro256::State session_rng;
  net::SimulatedNetwork::ResumeState network;

  uint64_t tip_height = 0;
  crypto::Digest tip_hash{};
  std::map<uint32_t, uint64_t> miner_heights;

  std::vector<double> round_accuracies;
  uint64_t submission_retries = 0;

  Bytes Serialize() const;
  static Result<SessionCheckpoint> Deserialize(const Bytes& bytes);
};

/// Atomically replaces the checkpoint at `path` (tmp file, fsync, rename,
/// directory fsync).
Status SaveCheckpoint(const SessionCheckpoint& checkpoint,
                      const std::string& path);

/// Fail-closed load: NotFound when no checkpoint exists, Corruption on
/// any framing/CRC/decode mismatch — never a partial checkpoint.
Result<SessionCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace bcfl::core
