#pragma once

// Per-round protocol ledger: the auditable runtime record the paper's
// transparency story asks for. BcflCoordinator emits one RoundRecord per
// FL round — the round's share of every phase-latency histogram, the
// signature-cache hit rate, the fault events that actually fired, the
// dropout/recovery roster and the round's per-owner SV vector — and the
// ledger appends it to a JSONL file (one self-contained JSON object per
// line, streamable while the run is still going) together with a rolling
// per-owner SV volatility score, since per-round SV trajectories, not
// just final totals, are what an operator must watch (arXiv:2405.08044).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace bcfl::obs {

/// Everything one FL round contributed to the ledger.
struct RoundRecord {
  uint64_t round = 0;
  /// Wall microseconds each latency histogram gained during the round,
  /// keyed by the histogram's name (see AddPhaseDeltas): a span's
  /// `span.<category>.<name>_us` ("span.fl.train_us",
  /// "span.chain.block_commit_us", ...) or a scope no span covers
  /// ("secureagg.mask_us", "chain.commit_us"). Phases that did not run
  /// are absent; with observability off nothing moves and it is empty.
  std::map<std::string, double> phase_us;
  /// Signature-cache hit rate over the verifications this round (0 when
  /// none ran).
  double sig_cache_hit_rate = 0.0;
  uint64_t sig_cache_lookups = 0;
  /// Executed fault-injector entries attributed to this round, verbatim.
  std::vector<std::string> fault_events;
  /// Owners that missed the round's submission deadline (or were down).
  std::vector<uint32_t> dropouts;
  /// Owners retired by an on-chain recovery committed this round.
  std::vector<uint32_t> recovered;
  /// Owners convicted by an on-chain slash committed this round (PR 9).
  std::vector<uint32_t> slashed;
  /// Accusation (slash) transactions submitted this round.
  uint64_t accusations = 0;
  /// The round's on-chain per-owner SV vector v_i^r.
  std::vector<double> sv;
  double accuracy = 0.0;
  uint64_t blocks_committed = 0;
  uint64_t transactions = 0;
};

/// Adds one ledger window to `phase_us`: for every `_us` histogram whose
/// sum grew from `before` to `after` (two snapshots of one registry), the
/// growth, keyed by the histogram's name. Windows add up, so a record can
/// span several.
void AddPhaseDeltas(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    std::map<std::string, double>* phase_us);

/// Rolling per-owner volatility of the appended SV vectors: the sample
/// standard deviation of each owner's last `window` round scores
/// (fewer while warming up; 0 with fewer than two samples). Exposed as
/// a free function so tests can pin the math without a file in play.
std::vector<double> RollingSvVolatility(
    const std::vector<std::vector<double>>& sv_history, size_t window);

/// Append-only JSONL writer. Not thread-safe: one coordinator owns one
/// ledger and appends from its round loop.
class RoundLedger {
 public:
  /// `volatility_window`: how many trailing rounds feed the volatility
  /// score (the arXiv:2405.08044 monitoring window).
  explicit RoundLedger(size_t volatility_window = 5)
      : volatility_window_(volatility_window) {}
  ~RoundLedger();
  RoundLedger(const RoundLedger&) = delete;
  RoundLedger& operator=(const RoundLedger&) = delete;

  /// Opens (truncates) `path` for appending records.
  Status Open(const std::string& path);

  /// Resume-aware open: keeps the first `keep_rounds` records of the
  /// existing ledger at `path`, truncates everything after them (rounds
  /// past the checkpoint are re-run and re-appended bit-identically), and
  /// primes the rolling-volatility window with the first `keep_rounds`
  /// vectors of `sv_history`, the exact per-round SVs of the kept rounds
  /// (the records' own "sv" arrays are %.6f-rounded) — so record
  /// `keep_rounds` onward serializes exactly as it would have in the
  /// uninterrupted run. InvalidArgument when `sv_history` is shorter than
  /// `keep_rounds`; Corruption when the file holds fewer than
  /// `keep_rounds` parseable records.
  Status OpenForResume(const std::string& path, size_t keep_rounds,
                       const std::vector<std::vector<double>>& sv_history);
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Serialises `record` (plus the rolling volatility derived from every
  /// SV vector appended so far) as one JSON line and flushes, so a tail
  /// of the file is always whole records.
  Status Append(const RoundRecord& record);

  size_t rounds_written() const { return sv_history_.size(); }
  /// The volatility vector computed for the most recent Append.
  const std::vector<double>& last_volatility() const {
    return last_volatility_;
  }

  void Close();

 private:
  size_t volatility_window_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<std::vector<double>> sv_history_;
  std::vector<double> last_volatility_;
};

}  // namespace bcfl::obs
