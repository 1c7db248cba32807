#include "shapley/group_sv.h"

#include <algorithm>
#include <bit>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "shapley/shapley_math.h"

namespace bcfl::shapley {

std::vector<size_t> PermutationFromSeed(uint64_t seed_e, uint64_t round,
                                        size_t n) {
  // Bind seed and round through SHA-256 so rounds are independent even
  // for adversarially chosen seeds, then drive a Fisher–Yates shuffle.
  ByteWriter writer;
  writer.WriteString("bcfl-group-permutation");
  writer.WriteU64(seed_e);
  writer.WriteU64(round);
  crypto::Digest digest = crypto::Sha256::Hash(writer.buffer());
  uint64_t derived = 0;
  for (int i = 0; i < 8; ++i) {
    derived |= static_cast<uint64_t>(digest[static_cast<size_t>(i)])
               << (8 * i);
  }
  Xoshiro256 rng(derived);
  return rng.Permutation(n);
}

Result<std::vector<std::vector<size_t>>> GroupUsers(
    const std::vector<size_t>& permutation, size_t num_groups) {
  const size_t n = permutation.size();
  if (num_groups == 0) {
    return Status::InvalidArgument("num_groups must be >= 1");
  }
  if (num_groups > n) {
    return Status::InvalidArgument("more groups than users");
  }
  std::vector<std::vector<size_t>> groups(num_groups);
  size_t base = n / num_groups;
  size_t remainder = n % num_groups;
  size_t cursor = 0;
  for (size_t j = 0; j < num_groups; ++j) {
    size_t size = base + (j < remainder ? 1 : 0);
    groups[j].assign(permutation.begin() + static_cast<long>(cursor),
                     permutation.begin() + static_cast<long>(cursor + size));
    cursor += size;
  }
  return groups;
}

Result<size_t> GroupOf(const std::vector<std::vector<size_t>>& groups,
                       size_t user) {
  for (size_t j = 0; j < groups.size(); ++j) {
    if (std::ranges::find(groups[j], user) != groups[j].end()) return j;
  }
  return Status::Internal("user " + std::to_string(user) + " is in no group");
}

GroupShapley::GroupShapley(size_t num_users, GroupShapleyConfig config,
                           UtilityFunction* utility)
    : num_users_(num_users), config_(config), utility_(utility) {}

Result<GroupShapleyRound> GroupShapley::EvaluateRound(
    uint64_t round, const std::vector<ml::Matrix>& user_locals) const {
  if (user_locals.size() != num_users_) {
    return Status::InvalidArgument("expected one local update per user");
  }
  std::vector<size_t> perm =
      PermutationFromSeed(config_.seed_e, round, num_users_);
  BCFL_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                        GroupUsers(perm, config_.num_groups));

  // Line 3: W_j = mean of member local weights (what secure aggregation
  // yields on chain).
  std::vector<ml::Matrix> group_models;
  group_models.reserve(groups.size());
  for (const auto& members : groups) {
    std::vector<ml::Matrix> locals;
    locals.reserve(members.size());
    for (size_t i : members) locals.push_back(user_locals[i]);
    BCFL_ASSIGN_OR_RETURN(ml::Matrix mean, ml::MeanOfMatrices(locals));
    group_models.push_back(std::move(mean));
  }
  return EvaluateRoundFromGroupModels(groups, std::move(group_models));
}

Result<GroupShapleyRound> GroupShapley::EvaluateRoundFromGroupModels(
    const std::vector<std::vector<size_t>>& groups,
    std::vector<ml::Matrix> group_models) const {
  const size_t m = groups.size();
  if (m == 0 || m > 20) {
    return Status::InvalidArgument("group count must be in [1, 20]");
  }
  if (group_models.size() != m) {
    return Status::InvalidArgument("one model required per group");
  }

  GroupShapleyRound out;
  out.groups = groups;
  out.group_models = std::move(group_models);

  // Line 4: coalition models W_S = (1/|S|) sum_{j in S} W_j for every
  // S in the powerset of groups; utility of each. The empty coalition is
  // the untrained (zero) model. The engine builds the 2^m coalition
  // models with 2^m - 1 subset-sum additions and scores them on the
  // configured pool.
  CoalitionEngineConfig engine_config;
  engine_config.pool = config_.pool;
  CoalitionEngine engine(utility_, engine_config);
  BCFL_ASSIGN_OR_RETURN(std::vector<double> utilities,
                        engine.EvaluateMeanCoalitions(out.group_models));
  out.engine_stats = engine.stats();

  // Lines 5-6: group Shapley values from the utility table (Eq. 1 over m
  // players).
  BCFL_ASSIGN_OR_RETURN(out.group_values,
                        ExactShapleyFromTable(m, utilities));

  // Line 7: each member receives its group's value split evenly.
  out.user_values.assign(num_users_, 0.0);
  for (size_t j = 0; j < m; ++j) {
    double share =
        out.group_values[j] / static_cast<double>(groups[j].size());
    for (size_t i : groups[j]) {
      if (i >= num_users_) {
        return Status::OutOfRange("group member id out of range");
      }
      out.user_values[i] = share;
    }
  }

  // Global model: size-weighted mean of group models == mean over users.
  std::vector<double> sizes;
  sizes.reserve(m);
  for (const auto& g : groups) {
    sizes.push_back(static_cast<double>(g.size()));
  }
  BCFL_ASSIGN_OR_RETURN(out.global_model,
                        ml::WeightedMeanOfMatrices(out.group_models, sizes));
  return out;
}

Result<std::vector<double>> GroupShapley::AccumulateOverRounds(
    const std::vector<std::vector<ml::Matrix>>& per_round_locals) const {
  if (per_round_locals.empty()) {
    return Status::InvalidArgument("no rounds to evaluate");
  }
  std::vector<double> totals(num_users_, 0.0);
  for (size_t r = 0; r < per_round_locals.size(); ++r) {
    BCFL_ASSIGN_OR_RETURN(GroupShapleyRound round,
                          EvaluateRound(r, per_round_locals[r]));
    for (size_t i = 0; i < num_users_; ++i) {
      totals[i] += round.user_values[i];
    }
  }
  return totals;
}

}  // namespace bcfl::shapley
