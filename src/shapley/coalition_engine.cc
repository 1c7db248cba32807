#include "shapley/coalition_engine.h"

#include <bit>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::shapley {

namespace {

/// Folds one Evaluate* call's stats into the global registry — one batch
/// of counter adds per call, nothing per coalition, so the engine's hot
/// loop carries no instrumentation cost.
void RecordEngineStats(const CoalitionEngineStats& stats) {
  auto& registry = obs::MetricsRegistry::Global();
  static auto& coalitions =
      registry.GetCounter("shapley.coalitions_scored");
  static auto& additions = registry.GetCounter("shapley.matrix_additions");
  static auto& subtractions =
      registry.GetCounter("shapley.matrix_subtractions");
  static auto& dp_path = registry.GetCounter("shapley.path.subset_sum");
  static auto& gray_path = registry.GetCounter("shapley.path.gray_code");
  static auto& linear_path =
      registry.GetCounter("shapley.path.linear_score");
  coalitions.Add(stats.utility_evaluations);
  additions.Add(stats.matrix_additions);
  subtractions.Add(stats.matrix_subtractions);
  (stats.used_gray_code ? gray_path : dp_path).Add();
  if (stats.used_linear_scores) linear_path.Add();
}

Status CheckPlayerModels(const std::vector<ml::Matrix>& models) {
  if (models.empty()) {
    return Status::InvalidArgument("no player models");
  }
  if (models[0].empty()) {
    return Status::InvalidArgument("player models must be non-empty");
  }
  for (const ml::Matrix& m : models) {
    if (m.rows() != models[0].rows() || m.cols() != models[0].cols()) {
      return Status::InvalidArgument("player model shapes differ");
    }
  }
  return Status::OK();
}

}  // namespace

CoalitionEngine::CoalitionEngine(UtilityFunction* utility,
                                 CoalitionEngineConfig config)
    : utility_(utility), config_(config) {}

Result<std::vector<double>> CoalitionEngine::EvaluateMeanCoalitions(
    const std::vector<ml::Matrix>& player_models) {
  obs::ScopedSpan span(obs::Tracer::Global(), "coalition_eval", "shapley");
  stats_ = CoalitionEngineStats{};
  const size_t m = player_models.size();
  if (m == 0 || m > 20) {
    return Status::InvalidArgument("player count must be in [1, 20]");
  }
  BCFL_RETURN_IF_ERROR(CheckPlayerModels(player_models));

  auto* linear_utility = dynamic_cast<LinearScoreUtility*>(utility_);
  const bool linear = linear_utility != nullptr;

  // Basis of the subset sums: per-player score matrices on the linear
  // fast path (one X * W product per *player*, not per coalition), the
  // raw weight matrices otherwise.
  std::vector<ml::Matrix> score_basis;
  if (linear) {
    stats_.used_linear_scores = true;
    score_basis.resize(m);
    std::vector<Status> statuses(m, Status::OK());
    auto project = [&](size_t j) {
      auto scores = linear_utility->PlayerScores(player_models[j]);
      if (scores.ok()) {
        score_basis[j] = std::move(scores).value();
      } else {
        statuses[j] = scores.status();
      }
    };
    if (config_.pool != nullptr) {
      config_.pool->ParallelFor(m, project, /*grain=*/1);
    } else {
      for (size_t j = 0; j < m; ++j) project(j);
    }
    for (const Status& s : statuses) {
      BCFL_RETURN_IF_ERROR(s);
    }
  }
  const std::vector<ml::Matrix>& basis = linear ? score_basis : player_models;

  const uint64_t full = 1ULL << m;
  const size_t table_bytes = static_cast<size_t>(full) * basis[0].size() *
                             sizeof(double);
  Result<std::vector<double>> result =
      table_bytes > config_.max_table_bytes
          ? MeanCoalitionsGrayCode(basis, linear, linear_utility)
          : MeanCoalitionsSubsetSum(basis, linear, linear_utility);
  if (result.ok()) RecordEngineStats(stats_);
  return result;
}

Result<double> CoalitionEngine::ScoreCoalition(
    const ml::Matrix& sum, size_t coalition_size, bool linear,
    LinearScoreUtility* linear_utility) {
  if (linear) {
    return linear_utility->EvaluateScoreSum(sum, coalition_size);
  }
  if (coalition_size == 0) {
    return utility_->Evaluate(sum);  // All-zero: the untrained model.
  }
  return utility_->Evaluate(
      sum.Scaled(1.0 / static_cast<double>(coalition_size)));
}

Result<std::vector<double>> CoalitionEngine::MeanCoalitionsSubsetSum(
    const std::vector<ml::Matrix>& basis, bool linear,
    LinearScoreUtility* linear_utility) {
  const size_t m = basis.size();
  const uint64_t full = 1ULL << m;

  // Subset-sum DP: every coalition sum is its predecessor without the
  // highest member, plus that member — exactly 2^m - 1 additions, and
  // the same ascending-index accumulation order (hence the same floating
  // point result) as summing each coalition from scratch.
  std::vector<ml::Matrix> sums(full);
  sums[0] = ml::Matrix(basis[0].rows(), basis[0].cols());
  for (uint64_t mask = 1; mask < full; ++mask) {
    const uint64_t high = 1ULL << (std::bit_width(mask) - 1);
    sums[mask] = sums[mask ^ high];
    BCFL_RETURN_IF_ERROR(
        sums[mask].AddInPlace(basis[std::bit_width(mask) - 1]));
    ++stats_.matrix_additions;
  }

  // Independent per-mask scoring into index-addressed slots: the result
  // does not depend on scheduling, so any pool size is bit-identical.
  std::vector<double> utilities(full);
  std::vector<Status> statuses(full, Status::OK());
  auto score_one = [&](size_t mask) {
    auto u = ScoreCoalition(sums[mask],
                            static_cast<size_t>(std::popcount(
                                static_cast<uint64_t>(mask))),
                            linear, linear_utility);
    if (u.ok()) {
      utilities[mask] = *u;
    } else {
      statuses[mask] = u.status();
    }
  };
  if (config_.pool != nullptr) {
    config_.pool->ParallelFor(static_cast<size_t>(full), score_one);
  } else {
    for (uint64_t mask = 0; mask < full; ++mask) {
      score_one(static_cast<size_t>(mask));
    }
  }
  stats_.utility_evaluations += static_cast<size_t>(full);
  for (const Status& s : statuses) {
    BCFL_RETURN_IF_ERROR(s);
  }
  return utilities;
}

Result<std::vector<double>> CoalitionEngine::MeanCoalitionsGrayCode(
    const std::vector<ml::Matrix>& basis, bool linear,
    LinearScoreUtility* linear_utility) {
  const size_t m = basis.size();
  const uint64_t full = 1ULL << m;
  stats_.used_gray_code = true;

  // Memory-constrained path: walk masks in Gray-code order, keeping one
  // model-sized running sum; each step toggles a single member (one add
  // or one subtract). Inherently serial — the running sum is shared
  // state — so it trades the pool for O(1) memory.
  ml::Matrix running(basis[0].rows(), basis[0].cols());
  std::vector<double> utilities(full);
  BCFL_ASSIGN_OR_RETURN(utilities[0],
                        ScoreCoalition(running, 0, linear, linear_utility));
  stats_.utility_evaluations += 1;
  uint64_t prev_gray = 0;
  for (uint64_t k = 1; k < full; ++k) {
    const uint64_t gray = k ^ (k >> 1);
    const uint64_t toggled = gray ^ prev_gray;  // Exactly one bit.
    const size_t j = static_cast<size_t>(std::countr_zero(toggled));
    if (gray & toggled) {
      BCFL_RETURN_IF_ERROR(running.AddInPlace(basis[j]));
      ++stats_.matrix_additions;
    } else {
      BCFL_RETURN_IF_ERROR(running.SubInPlace(basis[j]));
      ++stats_.matrix_subtractions;
    }
    BCFL_ASSIGN_OR_RETURN(
        utilities[gray],
        ScoreCoalition(running,
                       static_cast<size_t>(std::popcount(gray)), linear,
                       linear_utility));
    stats_.utility_evaluations += 1;
    prev_gray = gray;
  }
  return utilities;
}

Result<std::vector<double>> CoalitionEngine::EvaluateModelTable(
    const std::vector<ml::Matrix>& models) {
  obs::ScopedSpan span(obs::Tracer::Global(), "model_table_eval", "shapley");
  stats_ = CoalitionEngineStats{};
  if (models.empty()) {
    return Status::InvalidArgument("empty model table");
  }
  std::vector<double> utilities(models.size());
  std::vector<Status> statuses(models.size(), Status::OK());
  auto score_one = [&](size_t i) {
    auto u = utility_->Evaluate(models[i]);
    if (u.ok()) {
      utilities[i] = *u;
    } else {
      statuses[i] = u.status();
    }
  };
  if (config_.pool != nullptr) {
    config_.pool->ParallelFor(models.size(), score_one);
  } else {
    for (size_t i = 0; i < models.size(); ++i) score_one(i);
  }
  stats_.utility_evaluations += models.size();
  for (const Status& s : statuses) {
    BCFL_RETURN_IF_ERROR(s);
  }
  static auto& coalitions = obs::MetricsRegistry::Global().GetCounter(
      "shapley.coalitions_scored");
  coalitions.Add(models.size());
  return utilities;
}

Result<CoalitionAccumulator> CoalitionAccumulator::Make(
    const std::vector<ml::Matrix>* player_models, UtilityFunction* utility) {
  if (player_models == nullptr || player_models->empty()) {
    return Status::InvalidArgument("no player models");
  }
  if (player_models->size() > 63) {
    return Status::InvalidArgument("player count must be <= 63");
  }
  BCFL_RETURN_IF_ERROR(CheckPlayerModels(*player_models));

  CoalitionAccumulator acc;
  acc.players_ = player_models;
  acc.utility_ = utility;
  acc.linear_ = dynamic_cast<LinearScoreUtility*>(utility);
  if (acc.linear_ != nullptr) {
    acc.scores_.reserve(player_models->size());
    for (const ml::Matrix& model : *player_models) {
      BCFL_ASSIGN_OR_RETURN(ml::Matrix scores,
                            acc.linear_->PlayerScores(model));
      acc.scores_.push_back(std::move(scores));
    }
    acc.running_ =
        ml::Matrix(acc.scores_[0].rows(), acc.scores_[0].cols());
  } else {
    acc.running_ = ml::Matrix((*player_models)[0].rows(),
                              (*player_models)[0].cols());
  }
  return acc;
}

void CoalitionAccumulator::Reset() {
  running_.SetZero();
  mask_ = 0;
  count_ = 0;
}

Status CoalitionAccumulator::Include(size_t player) {
  if (player >= players_->size()) {
    return Status::OutOfRange("player index out of range");
  }
  const uint64_t bit = 1ULL << player;
  if (mask_ & bit) {
    return Status::InvalidArgument("player already in coalition");
  }
  BCFL_RETURN_IF_ERROR(running_.AddInPlace(
      linear_ != nullptr ? scores_[player] : (*players_)[player]));
  mask_ |= bit;
  ++count_;
  return Status::OK();
}

Result<double> CoalitionAccumulator::Evaluate() {
  if (linear_ != nullptr) {
    return linear_->EvaluateScoreSum(running_, count_);
  }
  if (count_ == 0) {
    return utility_->Evaluate(running_);
  }
  return utility_->Evaluate(
      running_.Scaled(1.0 / static_cast<double>(count_)));
}

}  // namespace bcfl::shapley
