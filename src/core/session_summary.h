#pragma once

#include <cstdint>
#include <string>

#include "chain/blockchain.h"
#include "core/coordinator.h"

namespace bcfl::core {

/// Deterministic end-of-session fingerprint. Every field is a pure
/// function of the protocol run (no wall clock, no process-local counter
/// baselines), so two runs of one configuration agree on it byte for byte
/// whatever the pool size or restart history. bcfl_sim exports it as
/// metrics.json's `session_summary`, the crash-restart CI stage diffs it
/// between a killed+resumed session and the uninterrupted baseline, and
/// the round engine tests pin it as frozen test vectors.
struct SessionSummary {
  uint64_t chain_tip_height = 0;
  std::string chain_tip_hash;  ///< Hex SHA-256 of the tip block header.
  size_t blocks_committed = 0;
  size_t transactions = 0;
  size_t recover_transactions = 0;
  size_t submission_retries = 0;
  size_t slash_transactions = 0;
  /// Hex SHA-256 over the bit patterns of the total SV doubles, then every
  /// round's SV vector.
  std::string sv_digest;
  /// Hex SHA-256 over the serialized final global weights.
  std::string weights_digest;
  /// Hex SHA-256 over the bit patterns of the per-round accuracies.
  std::string accuracy_digest;

  /// One JSON object with the fields above, in declaration order.
  std::string ToJson() const;
};

/// Fingerprints `result` together with the canonical chain it committed.
SessionSummary SummarizeSession(const chain::Blockchain& chain,
                                const BcflRunResult& result);

}  // namespace bcfl::core
