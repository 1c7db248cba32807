#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "ml/matrix.h"
#include "shapley/coalition_engine.h"
#include "shapley/utility.h"

namespace bcfl::shapley {

/// Deterministic permutation of {0..n-1} from the agreed random seed `e`
/// and the round number — Algorithm 1, line 1. Every miner derives the
/// identical permutation, which is what makes the grouping verifiable.
std::vector<size_t> PermutationFromSeed(uint64_t seed_e, uint64_t round,
                                        size_t n);

/// Splits the permuted users into `m` contiguous groups of near-equal
/// size (Algorithm 1, line 2; the remainder is spread over the leading
/// groups). Fails when m is 0 or exceeds n.
Result<std::vector<std::vector<size_t>>> GroupUsers(
    const std::vector<size_t>& permutation, size_t num_groups);

/// Index of the group in `groups` that holds `user`. Fails with Internal
/// when no group does.
Result<size_t> GroupOf(const std::vector<std::vector<size_t>>& groups,
                       size_t user);

/// Per-round output of the GroupSV evaluation.
struct GroupShapleyRound {
  std::vector<std::vector<size_t>> groups;  ///< Member user ids per group.
  std::vector<ml::Matrix> group_models;     ///< W_j, line 3.
  std::vector<double> group_values;         ///< V_j, line 6.
  std::vector<double> user_values;          ///< v_i^r, line 7.
  ml::Matrix global_model;                  ///< W_G (size-weighted mean).
  /// Engine counters for this round (2^m - 1 coalition-model additions,
  /// 2^m utility evaluations); lets callers assert the cost contract.
  CoalitionEngineStats engine_stats;
};

/// Configuration of the group-based Shapley evaluation.
struct GroupShapleyConfig {
  size_t num_groups = 3;  ///< m; trade-off between privacy and resolution.
  uint64_t seed_e = 7;    ///< Permutation seed agreed at setup.
  /// Worker pool for coalition utility evaluation (null = serial).
  /// Results are bit-identical for every pool size.
  ThreadPool* pool = nullptr;
};

/// The paper's contribution: Group Shapley (Algorithm 1).
///
/// Because secure aggregation reveals only per-group aggregate models,
/// the native SV (which needs every individual's marginal) cannot be
/// computed. GroupSV evaluates the Shapley value of each *group* from
/// coalition models built by plain aggregation of group models, then
/// assigns each member V_j / |G_j|. With m = n it degenerates to
/// per-user SV on local models (max resolution, no privacy); with m = 1
/// everyone gets the same value (max privacy, no resolution).
class GroupShapley {
 public:
  GroupShapley(size_t num_users, GroupShapleyConfig config,
               UtilityFunction* utility);

  size_t num_users() const { return num_users_; }
  const GroupShapleyConfig& config() const { return config_; }

  /// Reference (unmasked) path: computes group models directly from the
  /// users' per-round local weights, then evaluates the round.
  Result<GroupShapleyRound> EvaluateRound(
      uint64_t round, const std::vector<ml::Matrix>& user_locals) const;

  /// Masked path: group models were already produced by secure
  /// aggregation; evaluates lines 4-7 only. `groups` must match the
  /// deterministic grouping for (seed_e, round).
  Result<GroupShapleyRound> EvaluateRoundFromGroupModels(
      const std::vector<std::vector<size_t>>& groups,
      std::vector<ml::Matrix> group_models) const;

  /// Full multi-round evaluation: v_i = sum_r v_i^r (Sect. IV-B).
  /// `per_round_locals[r][i]` = user i's local weights at round r.
  Result<std::vector<double>> AccumulateOverRounds(
      const std::vector<std::vector<ml::Matrix>>& per_round_locals) const;

 private:
  size_t num_users_;
  GroupShapleyConfig config_;
  UtilityFunction* utility_;
};

}  // namespace bcfl::shapley
