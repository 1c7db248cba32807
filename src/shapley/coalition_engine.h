#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "ml/matrix.h"
#include "shapley/utility.h"

namespace bcfl::shapley {

/// Knobs for the coalition-evaluation engine.
struct CoalitionEngineConfig {
  /// Worker pool for the utility-evaluation stage (null = serial). The
  /// result is bit-identical for every pool size, including none.
  ThreadPool* pool = nullptr;
  /// Upper bound on the memory the subset-sum table may occupy. Above it
  /// the engine falls back to Gray-code running sums: O(1) model-sized
  /// state, still one add/sub per coalition, but inherently serial.
  /// 2^m tables for the paper's m <= 9 are well below the default.
  size_t max_table_bytes = size_t{1} << 28;  // 256 MiB
};

/// Counters exposed for benchmarking and for asserting the engine's
/// complexity contract (exactly 2^m - 1 matrix additions to build all
/// coalition models).
struct CoalitionEngineStats {
  size_t matrix_additions = 0;     ///< Adds in the subset-sum / Gray build.
  size_t matrix_subtractions = 0;  ///< Gray-code path only.
  size_t utility_evaluations = 0;  ///< One per coalition mask.
  bool used_linear_scores = false; ///< LinearScoreUtility fast path taken.
  bool used_gray_code = false;     ///< Memory-constrained fallback taken.
};

/// Shared coalition-evaluation engine behind NativeShapley, GroupShapley
/// and the Monte-Carlo estimator: given one model per player, it computes
/// the utility u(S) of the *mean-aggregated* model of every coalition
/// S ⊆ {players}, i.e. the full 2^m utility table that Eq. 1 consumes.
///
/// Four coordinated optimisations over the naive powerset walk:
///  1. Subset-sum DP construction — sum[mask] = sum[mask \ highbit] +
///     W_highbit — builds all 2^m coalition sums with exactly 2^m - 1
///     matrix additions instead of O(2^m * m) rebuild-from-scratch.
///     Removing the *highest* bit reproduces the ascending-index
///     accumulation order of the naive loop, so results match it bit
///     for bit.
///  2. Linear-score fast path — when the utility implements
///     LinearScoreUtility, the DP runs over per-player score matrices
///     (X_aug * W_j, computed once per player) and each coalition is
///     scored straight from its score sum, skipping the per-coalition
///     X * W product entirely.
///  3. Parallel utility evaluation — coalition scores are independent, so
///     they run on the pool with results written to index-addressed
///     slots; output is deterministic regardless of thread count.
///  4. Chunked dispatch — the 2^m-sized loop reaches the pool through
///     ThreadPool::ParallelFor's automatic chunks, not one closure per
///     mask.
class CoalitionEngine {
 public:
  explicit CoalitionEngine(UtilityFunction* utility,
                           CoalitionEngineConfig config = {});

  /// Utility table over all 2^m coalitions of `player_models`, where the
  /// coalition model is the element-wise mean of the members' models and
  /// the empty coalition is the zero (untrained) model. Entry `mask` of
  /// the result scores coalition {i : bit i of mask set}. m must be in
  /// [1, 20].
  Result<std::vector<double>> EvaluateMeanCoalitions(
      const std::vector<ml::Matrix>& player_models);

  /// Utility of every entry of a precomputed model table (e.g. the 2^n
  /// retrained coalition models of the native SV), evaluated in parallel
  /// into index-addressed slots.
  Result<std::vector<double>> EvaluateModelTable(
      const std::vector<ml::Matrix>& models);

  /// Counters from the most recent Evaluate* call.
  const CoalitionEngineStats& stats() const { return stats_; }

 private:
  Result<std::vector<double>> MeanCoalitionsSubsetSum(
      const std::vector<ml::Matrix>& basis, bool linear,
      LinearScoreUtility* linear_utility);
  Result<std::vector<double>> MeanCoalitionsGrayCode(
      const std::vector<ml::Matrix>& basis, bool linear,
      LinearScoreUtility* linear_utility);
  Result<double> ScoreCoalition(const ml::Matrix& sum, size_t coalition_size,
                                bool linear,
                                LinearScoreUtility* linear_utility);

  UtilityFunction* utility_;
  CoalitionEngineConfig config_;
  CoalitionEngineStats stats_;
};

/// Incremental coalition builder for permutation scans (Monte-Carlo SV):
/// maintains the running sum of the included players' models — or score
/// matrices, when the utility supports the linear fast path — so that
/// extending a coalition by one player costs a single matrix add instead
/// of a rebuild of the whole mean.
class CoalitionAccumulator {
 public:
  /// Prepares an accumulator over `player_models` (not owned; must
  /// outlive the accumulator). Precomputes per-player score matrices
  /// when `utility` implements LinearScoreUtility.
  static Result<CoalitionAccumulator> Make(
      const std::vector<ml::Matrix>* player_models, UtilityFunction* utility);

  /// Back to the empty coalition.
  void Reset();
  /// Adds one player (one matrix add). Fails on duplicates/out-of-range.
  Status Include(size_t player);
  /// Utility of the current coalition's mean-aggregated model.
  Result<double> Evaluate();

  uint64_t mask() const { return mask_; }
  size_t count() const { return count_; }

 private:
  CoalitionAccumulator() = default;

  const std::vector<ml::Matrix>* players_ = nullptr;
  UtilityFunction* utility_ = nullptr;
  LinearScoreUtility* linear_ = nullptr;  ///< Non-null: score-space mode.
  std::vector<ml::Matrix> scores_;        ///< Per-player scores (linear).
  ml::Matrix running_;                    ///< Sum of included models/scores.
  uint64_t mask_ = 0;
  size_t count_ = 0;
};

}  // namespace bcfl::shapley
