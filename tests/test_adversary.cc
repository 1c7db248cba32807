#include "core/adversary.h"

#include <gtest/gtest.h>

#include "core/coordinator.h"

namespace bcfl::core {
namespace {

BcflConfig SmallConfig() {
  BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 5;
  config.rounds = 1;
  config.num_groups = 2;
  config.seed = 31;
  config.seed_e = 6;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  return config;
}

TEST(AdversaryTest, SvInflationByFraudulentLeaderIsRejected) {
  // Baseline honest run.
  auto honest = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(honest.ok());
  auto honest_result = (*honest)->Run();
  ASSERT_TRUE(honest_result.ok());

  // Identical run but one miner inflates owner 3's contribution by +100
  // whenever it leads. Honest-majority re-execution must reject every
  // fraudulent proposal, leaving the on-chain SVs identical.
  auto attacked = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(attacked.ok());
  ASSERT_TRUE((*attacked)
                  ->InstallMinerBehavior(0, MakeSvInflationBehavior(3, 100.0))
                  .ok());
  auto attacked_result = (*attacked)->Run();
  ASSERT_TRUE(attacked_result.ok());

  EXPECT_EQ(attacked_result->total_sv, honest_result->total_sv);
  EXPECT_LT(attacked_result->total_sv[3], 50.0);
}

TEST(AdversaryTest, SvSuppressionIsRejected) {
  auto honest = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(honest.ok());
  auto honest_result = (*honest)->Run();
  ASSERT_TRUE(honest_result.ok());

  auto attacked = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(attacked.ok());
  ASSERT_TRUE((*attacked)
                  ->InstallMinerBehavior(1, MakeSvSuppressionBehavior(0))
                  .ok());
  auto attacked_result = (*attacked)->Run();
  ASSERT_TRUE(attacked_result.ok());
  EXPECT_EQ(attacked_result->total_sv, honest_result->total_sv);
}

TEST(AdversaryTest, MinorityGriefersDoNotChangeOutcome) {
  auto honest = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(honest.ok());
  auto honest_result = (*honest)->Run();
  ASSERT_TRUE(honest_result.ok());

  auto attacked = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(attacked.ok());
  ASSERT_TRUE(
      (*attacked)->InstallMinerBehavior(3, MakeAlwaysRejectBehavior()).ok());
  ASSERT_TRUE(
      (*attacked)->InstallMinerBehavior(4, MakeAlwaysRejectBehavior()).ok());
  auto attacked_result = (*attacked)->Run();
  ASSERT_TRUE(attacked_result.ok());
  EXPECT_EQ(attacked_result->total_sv, honest_result->total_sv);
}

TEST(AdversaryTest, BogusSlashByFraudulentLeaderIsRejected) {
  // Baseline honest run: nobody misbehaves, nobody is slashed.
  auto honest = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(honest.ok());
  auto honest_result = (*honest)->Run();
  ASSERT_TRUE(honest_result.ok());

  // One leader fabricates a conviction of honest owner 2 (PR 9): it
  // writes the slash/retire/drop records into its proposed state with no
  // verifiable evidence behind them. Honest validators re-execute the
  // block, never produce those records, and reject the proposal — the
  // committed chain keeps owner 2 unslashed with identical results.
  auto attacked = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(attacked.ok());
  ASSERT_TRUE((*attacked)
                  ->InstallMinerBehavior(0, MakeBogusSlashBehavior(2, 0))
                  .ok());
  auto attacked_result = (*attacked)->Run();
  ASSERT_TRUE(attacked_result.ok());

  EXPECT_EQ(attacked_result->total_sv, honest_result->total_sv);
  EXPECT_TRUE(attacked_result->slashed_at.empty());
  EXPECT_TRUE(attacked_result->retired_at.empty());
  auto& engine = (*attacked)->engine();
  EXPECT_FALSE(engine.CanonicalState().Has(keys::Slashed(2)));
  EXPECT_FALSE(engine.CanonicalState().Has(keys::Retired(2)));
  EXPECT_TRUE(engine.CanonicalState().Has(keys::RoundComplete(0)));
}

TEST(AdversaryTest, InstallBehaviorValidatesMinerIndex) {
  auto coordinator = BcflCoordinator::Create(SmallConfig());
  ASSERT_TRUE(coordinator.ok());
  EXPECT_TRUE((*coordinator)
                  ->InstallMinerBehavior(99, MakeAlwaysRejectBehavior())
                  .IsOutOfRange());
}

TEST(AdversaryTest, BehaviorsTamperAsSpecified) {
  // Unit-level checks of the tamper hooks themselves.
  chain::ContractState state;
  PutDouble(&state, keys::TotalSv(3), 1.5);

  auto inflate = MakeSvInflationBehavior(3, 10.0);
  ASSERT_TRUE(static_cast<bool>(inflate.tamper_state));
  inflate.tamper_state(&state);
  EXPECT_NEAR(*GetDouble(state, keys::TotalSv(3)), 11.5, 1e-12);

  auto suppress = MakeSvSuppressionBehavior(3);
  suppress.tamper_state(&state);
  EXPECT_NEAR(*GetDouble(state, keys::TotalSv(3)), 0.0, 1e-12);

  auto reject = MakeAlwaysRejectBehavior();
  EXPECT_TRUE(reject.always_reject);
  EXPECT_FALSE(static_cast<bool>(reject.tamper_state));
}

}  // namespace
}  // namespace bcfl::core
