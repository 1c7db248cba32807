#include "shapley/group_sv.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "shapley/shapley_math.h"

namespace bcfl::shapley {
namespace {

/// Utility that scores a 1x1 "model" by its single weight value — makes
/// GroupSV hand-checkable.
class ScalarUtility : public UtilityFunction {
 public:
  Result<double> Evaluate(const ml::Matrix& weights) override {
    return weights.At(0, 0);
  }
};

ml::Matrix Scalar(double v) {
  ml::Matrix m(1, 1);
  m.At(0, 0) = v;
  return m;
}

TEST(PermutationFromSeedTest, DeterministicPerSeedAndRound) {
  auto p1 = PermutationFromSeed(7, 0, 9);
  auto p2 = PermutationFromSeed(7, 0, 9);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(PermutationFromSeed(7, 1, 9), p1);  // Round-dependent.
  EXPECT_NE(PermutationFromSeed(8, 0, 9), p1);  // Seed-dependent.
}

TEST(PermutationFromSeedTest, IsValidPermutation) {
  for (uint64_t round = 0; round < 5; ++round) {
    auto perm = PermutationFromSeed(42, round, 9);
    std::set<size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 9u);
  }
}

TEST(GroupUsersTest, BalancedContiguousChunks) {
  std::vector<size_t> perm = {8, 0, 3, 1, 7, 2, 6, 4, 5};
  auto groups = GroupUsers(perm, 3);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 3u);
  EXPECT_EQ((*groups)[0], (std::vector<size_t>{8, 0, 3}));
  EXPECT_EQ((*groups)[1], (std::vector<size_t>{1, 7, 2}));
  EXPECT_EQ((*groups)[2], (std::vector<size_t>{6, 4, 5}));
}

TEST(GroupUsersTest, RemainderSpreadsOverLeadingGroups) {
  std::vector<size_t> perm = {0, 1, 2, 3, 4, 5, 6};
  auto groups = GroupUsers(perm, 3);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ((*groups)[0].size(), 3u);
  EXPECT_EQ((*groups)[1].size(), 2u);
  EXPECT_EQ((*groups)[2].size(), 2u);
}

TEST(GroupOfTest, FindsTheGroupHoldingAUser) {
  const std::vector<std::vector<size_t>> groups = {{4, 0}, {2, 3, 1}};
  EXPECT_EQ(*GroupOf(groups, 0), 0u);
  EXPECT_EQ(*GroupOf(groups, 3), 1u);
  EXPECT_TRUE(GroupOf(groups, 5).status().IsInternal());
}

TEST(GroupUsersTest, RejectsDegenerateCounts) {
  std::vector<size_t> perm = {0, 1, 2};
  EXPECT_FALSE(GroupUsers(perm, 0).ok());
  EXPECT_FALSE(GroupUsers(perm, 4).ok());
  auto singleton = GroupUsers(perm, 3);
  ASSERT_TRUE(singleton.ok());
  for (const auto& g : *singleton) EXPECT_EQ(g.size(), 1u);
}

TEST(GroupShapleyTest, HandComputedTwoGroups) {
  // 4 users, m=2, scalar "models". Groups fixed explicitly.
  // User locals: 1, 2, 3, 4. Groups {0,1} and {2,3}:
  //   W_1 = 1.5, W_2 = 3.5, u = scalar value, u(empty) = 0 (zero model).
  //   Coalitions: u({1}) = 1.5, u({2}) = 3.5, u({1,2}) = 2.5.
  //   V_1 = 1/2 [ (1.5 - 0) + (2.5 - 3.5) ] = 0.25
  //   V_2 = 1/2 [ (3.5 - 0) + (2.5 - 1.5) ] = 2.25
  // Each member gets V_j / 2.
  ScalarUtility utility;
  GroupShapley evaluator(4, {2, 7}, &utility);
  std::vector<std::vector<size_t>> groups = {{0, 1}, {2, 3}};
  std::vector<ml::Matrix> group_models = {Scalar(1.5), Scalar(3.5)};
  auto round = evaluator.EvaluateRoundFromGroupModels(groups, group_models);
  ASSERT_TRUE(round.ok());
  EXPECT_NEAR(round->group_values[0], 0.25, 1e-12);
  EXPECT_NEAR(round->group_values[1], 2.25, 1e-12);
  EXPECT_NEAR(round->user_values[0], 0.125, 1e-12);
  EXPECT_NEAR(round->user_values[1], 0.125, 1e-12);
  EXPECT_NEAR(round->user_values[2], 1.125, 1e-12);
  EXPECT_NEAR(round->user_values[3], 1.125, 1e-12);
}

TEST(GroupShapleyTest, EvaluateRoundBuildsGroupMeans) {
  ScalarUtility utility;
  GroupShapley evaluator(4, {2, 7}, &utility);
  std::vector<ml::Matrix> locals = {Scalar(1), Scalar(2), Scalar(3),
                                    Scalar(4)};
  auto round = evaluator.EvaluateRound(0, locals);
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->groups.size(), 2u);
  // Each group model is the mean of its members' locals.
  for (size_t j = 0; j < 2; ++j) {
    double expected = 0;
    for (size_t i : round->groups[j]) expected += locals[i].At(0, 0);
    expected /= static_cast<double>(round->groups[j].size());
    EXPECT_NEAR(round->group_models[j].At(0, 0), expected, 1e-12);
  }
  // Global model is the size-weighted mean == overall user mean.
  EXPECT_NEAR(round->global_model.At(0, 0), 2.5, 1e-12);
}

TEST(GroupShapleyTest, MaxGroupsMatchesPerUserShapley) {
  // m = n: GroupSV degenerates to the native SV over the users' local
  // models (aggregated coalition models).
  ScalarUtility utility;
  const size_t n = 5;
  std::vector<ml::Matrix> locals;
  for (size_t i = 0; i < n; ++i) {
    locals.push_back(Scalar(static_cast<double>(i) + 1.0));
  }
  GroupShapley evaluator(n, {n, 13}, &utility);
  auto round = evaluator.EvaluateRound(0, locals);
  ASSERT_TRUE(round.ok());

  // Native SV with the same utility: u(S) = mean of member scalars.
  auto native = ExactShapley(n, [&](uint64_t mask) -> Result<double> {
    double sum = 0;
    int count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        sum += locals[i].At(0, 0);
        ++count;
      }
    }
    return count ? sum / count : 0.0;
  });
  ASSERT_TRUE(native.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(round->user_values[i], (*native)[i], 1e-9) << "user " << i;
  }
}

TEST(GroupShapleyTest, SingleGroupSplitsEvenly) {
  ScalarUtility utility;
  GroupShapley evaluator(4, {1, 3}, &utility);
  std::vector<ml::Matrix> locals = {Scalar(2), Scalar(4), Scalar(6),
                                    Scalar(8)};
  auto round = evaluator.EvaluateRound(0, locals);
  ASSERT_TRUE(round.ok());
  // One group: V_1 = u(grand) - u(empty) = 5.0; each user gets 1.25.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(round->user_values[i], 1.25, 1e-12);
  }
}

TEST(GroupShapleyTest, EfficiencyWithinRound) {
  // Sum of user SVs == u(grand coalition of groups) - u(empty).
  ScalarUtility utility;
  GroupShapley evaluator(6, {3, 5}, &utility);
  std::vector<ml::Matrix> locals;
  Xoshiro256 rng(3);
  for (size_t i = 0; i < 6; ++i) locals.push_back(Scalar(rng.NextDouble()));
  auto round = evaluator.EvaluateRound(2, locals);
  ASSERT_TRUE(round.ok());
  double sum = std::accumulate(round->user_values.begin(),
                               round->user_values.end(), 0.0);
  // Grand coalition model = unweighted mean of group models.
  ml::Matrix grand(1, 1);
  for (const auto& gm : round->group_models) {
    ASSERT_TRUE(grand.AddInPlace(gm).ok());
  }
  grand.Scale(1.0 / static_cast<double>(round->group_models.size()));
  EXPECT_NEAR(sum, grand.At(0, 0) - 0.0, 1e-9);
}

TEST(GroupShapleyTest, AccumulateSumsRounds) {
  ScalarUtility utility;
  GroupShapley evaluator(4, {2, 11}, &utility);
  std::vector<ml::Matrix> locals = {Scalar(1), Scalar(2), Scalar(3),
                                    Scalar(4)};
  std::vector<std::vector<ml::Matrix>> history = {locals, locals, locals};
  auto totals = evaluator.AccumulateOverRounds(history);
  ASSERT_TRUE(totals.ok());

  // Equals the sum of three independent round evaluations.
  std::vector<double> expected(4, 0.0);
  for (uint64_t r = 0; r < 3; ++r) {
    auto round = evaluator.EvaluateRound(r, locals);
    ASSERT_TRUE(round.ok());
    for (size_t i = 0; i < 4; ++i) expected[i] += round->user_values[i];
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR((*totals)[i], expected[i], 1e-12);
  }
}

TEST(GroupShapleyTest, RejectsBadInput) {
  ScalarUtility utility;
  GroupShapley evaluator(4, {2, 1}, &utility);
  EXPECT_FALSE(evaluator.EvaluateRound(0, {Scalar(1)}).ok());
  EXPECT_FALSE(evaluator.AccumulateOverRounds({}).ok());
  EXPECT_FALSE(
      evaluator.EvaluateRoundFromGroupModels({{0, 1}}, {}).ok());
}

}  // namespace
}  // namespace bcfl::shapley
