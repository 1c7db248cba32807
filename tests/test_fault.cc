#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "fault/injector.h"

namespace bcfl::fault {
namespace {

TEST(FaultPlanTest, ParsesEveryEventKind) {
  auto plan = FaultPlan::Parse(
      "crash owner 2 @1\n"
      "recover owner 2 @4\n"
      "slow miner 0 @1..3 +20000us\n"
      "drop-submit owner 1 @2 x3\n"
      "duplicate miner 3 @0..5\n"
      "reorder miner 2 @1..2\n"
      "partition miners 0,1 @3..4\n"
      "crash miner 4 @2");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events.size(), 8u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan->events[0].node_kind, NodeKind::kOwner);
  EXPECT_EQ(plan->events[0].node, 2u);
  EXPECT_EQ(plan->events[0].round, 1u);
  EXPECT_EQ(plan->events[2].delay_us, 20000u);
  EXPECT_EQ(plan->events[2].end_round, 3u);
  EXPECT_EQ(plan->events[3].count, 3u);
  EXPECT_EQ(plan->events[6].members, (std::vector<uint32_t>{0, 1}));
}

TEST(FaultPlanTest, SemicolonsAndCommentsAreAccepted) {
  auto plan = FaultPlan::Parse(
      "# chaos for the demo\n"
      "crash owner 0 @1; recover owner 0 @2  # transient\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->events.size(), 2u);
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  // Every event kind, written loosely (comments, spare blanks, a
  // one-round interval, an explicit x1); the canonical text is pinned.
  auto plan = FaultPlan::Parse(
      "crash owner 2 @1; recover owner 2 @3  # back online\n"
      "slow miner 0 @1..3 +500us; slow owner 4 @2..2 +7us\n"
      "drop-submit owner 1 @2 x3; drop-submit owner 5 @0 x1\n"
      "duplicate miner 3 @0..5; reorder miner 2 @2\n"
      "partition miners 0,1 @3..4; bad-share owner 6 @1..2\n"
      "inconsistent-mask owner 7 @1; equivocate-submit owner 8 @2\n"
      "poison-update owner 3 @4 *2.5; kill @5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  constexpr char kCanonical[] =
      "crash owner 2 @1\n"
      "recover owner 2 @3\n"
      "slow miner 0 @1..3 +500us\n"
      "slow owner 4 @2 +7us\n"
      "drop-submit owner 1 @2 x3\n"
      "drop-submit owner 5 @0\n"
      "duplicate miner 3 @0..5\n"
      "reorder miner 2 @2\n"
      "partition miners 0,1 @3..4\n"
      "bad-share owner 6 @1..2\n"
      "inconsistent-mask owner 7 @1\n"
      "equivocate-submit owner 8 @2\n"
      "poison-update owner 3 @4 *2.5\n"
      "kill @5";
  EXPECT_EQ(plan->ToString(), kCanonical);
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), kCanonical);
  EXPECT_EQ(plan->events.size(), reparsed->events.size());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("explode owner 1 @0").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash owner 1").ok());        // No round.
  EXPECT_FALSE(FaultPlan::Parse("crash gremlin 1 @0").ok());   // Bad kind.
  EXPECT_FALSE(FaultPlan::Parse("partition owners 0,1 @0").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash owner x @0").ok());     // Bad id.
  EXPECT_FALSE(FaultPlan::Parse("slow miner 0 @3..1 +5us").ok());
}

TEST(FaultPlanTest, ParseRejectsOutOfRangeNumbers) {
  // All-digit tokens past 2^64-1 must fail as InvalidArgument, not throw.
  EXPECT_FALSE(
      FaultPlan::Parse("crash owner 99999999999999999999 @1").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("crash owner 1 @99999999999999999999").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("slow miner 0 @1 +99999999999999999999us").ok());
}

TEST(FaultPlanTest, ValidateReplaysOutOfOrderEventsByRound) {
  // Listing the recover before its crash must not change the semantics:
  // miner 0 is back from round 3 on, so rounds >= 4 lose only miner 1
  // and the plan keeps a 2/3 majority throughout.
  auto plan = FaultPlan::Parse(
      "recover miner 0 @3; crash miner 0 @2; crash miner 1 @4");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Validate(4, 3, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsKindTargetMismatches) {
  auto drop = FaultPlan::Parse("drop-submit miner 1 @0");
  auto dup = FaultPlan::Parse("duplicate owner 1 @0");
  ASSERT_TRUE(drop.ok());
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(drop->Validate(4, 3, 3).ok());
  EXPECT_FALSE(dup->Validate(4, 3, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsOutOfRangeIds) {
  auto plan = FaultPlan::Parse("crash owner 7 @0");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Validate(4, 3, 3).ok());
  EXPECT_TRUE(plan->Validate(8, 3, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsCrashesBeyondShamirBudget) {
  // 4 owners, threshold 3: at most one owner may ever crash.
  auto one = FaultPlan::Parse("crash owner 0 @0");
  auto two = FaultPlan::Parse("crash owner 0 @0; crash owner 1 @1");
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_TRUE(one->Validate(4, 3, 3).ok());
  EXPECT_FALSE(two->Validate(4, 3, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsMinerMajorityLoss) {
  // 3 miners: two crashed leaves one online, below strict majority.
  auto plan = FaultPlan::Parse("crash miner 0 @0; crash miner 1 @0");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Validate(4, 3, 3).ok());
  // The same crashes are fine on a 5-miner roster.
  EXPECT_TRUE(plan->Validate(4, 5, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsEvenPartitionSplit) {
  // 4 miners split 2/2: no majority component remains.
  auto plan = FaultPlan::Parse("partition miners 0,1 @0");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Validate(4, 4, 3).ok());
  EXPECT_TRUE(plan->Validate(4, 5, 3).ok());
}

TEST(FaultPlanTest, ValidateRejectsInvertedIntervals) {
  FaultPlan plan;
  FaultEvent event;
  event.kind = FaultKind::kSlow;
  event.node_kind = NodeKind::kMiner;
  event.node = 0;
  event.round = 3;
  event.end_round = 1;
  event.delay_us = 10;
  plan.events.push_back(event);
  EXPECT_FALSE(plan.Validate(4, 3, 3).ok());
}

TEST(FaultPlanTest, ParsesByzantineEventKinds) {
  auto plan = FaultPlan::Parse(
      "bad-share owner 3 @1..2\n"
      "inconsistent-mask owner 0 @1\n"
      "equivocate-submit owner 2 @0\n"
      "poison-update owner 4 @2 *50");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events.size(), 4u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kBadShare);
  EXPECT_EQ(plan->events[0].end_round, 2u);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kInconsistentMask);
  EXPECT_EQ(plan->events[2].kind, FaultKind::kEquivocateSubmit);
  EXPECT_EQ(plan->events[3].kind, FaultKind::kPoisonUpdate);
  EXPECT_EQ(plan->events[3].magnitude, 50.0);
  // And the byzantine grammar round-trips.
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(plan->ToString(), reparsed->ToString());
}

TEST(FaultPlanTest, ParseFuzzRejectsMalformedByzantineSpecs) {
  // Unknown kinds near the real ones.
  EXPECT_FALSE(FaultPlan::Parse("bad-shares owner 1 @0").ok());
  EXPECT_FALSE(FaultPlan::Parse("equivocate owner 1 @0").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison owner 1 @0 *50").ok());
  // poison-update without (or with malformed) magnitude.
  EXPECT_FALSE(FaultPlan::Parse("poison-update owner 1 @0").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison-update owner 1 @0 *").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison-update owner 1 @0 *abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison-update owner 1 @0 *1.2.3").ok());
  // Out-of-range numbers survive as parse errors, not UB.
  EXPECT_FALSE(
      FaultPlan::Parse("bad-share owner 99999999999999999999 @0").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("poison-update owner 1 @0 *1e999999").ok());
}

TEST(FaultPlanTest, ValidateRejectsByzantineEventsAimedAtMiners) {
  for (const char* spec :
       {"bad-share miner 0 @0", "inconsistent-mask miner 0 @0",
        "equivocate-submit miner 0 @0", "poison-update miner 0 @0 *50"}) {
    auto plan = FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << spec;
    EXPECT_FALSE(plan->Validate(6, 3, 4).ok()) << spec;
  }
}

TEST(FaultPlanTest, ValidateRejectsOutOfRangeByzantineOwner) {
  auto plan = FaultPlan::Parse("bad-share owner 7 @0");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Validate(6, 3, 4).ok());
  EXPECT_TRUE(plan->Validate(8, 3, 5).ok());
}

TEST(FaultPlanTest, ValidateCountsByzantineOwnersAgainstShamirBudget) {
  // A slashed byzantine owner is retired exactly like a crashed one, so
  // the union of crashed and byzantine owners spends the same budget:
  // 6 owners, threshold 4 -> at most 2 may go down.
  auto two = FaultPlan::Parse("crash owner 1 @1; bad-share owner 3 @1");
  auto three = FaultPlan::Parse(
      "crash owner 1 @1; bad-share owner 3 @1; equivocate-submit owner 5 @1");
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_TRUE(two->Validate(6, 3, 4).ok());
  EXPECT_FALSE(three->Validate(6, 3, 4).ok());
  // The same owner misbehaving twice spends one slot, not two.
  auto repeat = FaultPlan::Parse(
      "bad-share owner 3 @1; poison-update owner 3 @2 *50; crash owner 1 @1");
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->Validate(6, 3, 4).ok());
}

TEST(FaultPlanTest, ValidateRejectsPoisonMagnitudeAtOrBelowOne) {
  FaultPlan plan;
  FaultEvent event;
  event.kind = FaultKind::kPoisonUpdate;
  event.node_kind = NodeKind::kOwner;
  event.node = 1;
  event.round = 0;
  event.magnitude = 1.0;  // Scaling by 1 poisons nothing.
  plan.events.push_back(event);
  EXPECT_FALSE(plan.Validate(6, 3, 4).ok());
  plan.events[0].magnitude = 1.5;
  EXPECT_TRUE(plan.Validate(6, 3, 4).ok());
}

TEST(FaultPlanTest, RandomByzantinePlansRespectTheEnvelope) {
  FaultPlanOptions options;
  options.byzantine_rate = 0.5;
  const size_t threshold = options.num_owners / 2 + 1;
  bool saw_byzantine = false;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan plan = FaultPlan::Random(seed, options);
    EXPECT_TRUE(
        plan.Validate(options.num_owners, options.num_miners, threshold).ok())
        << "seed " << seed << "\n"
        << plan.ToString();
    for (const auto& event : plan.events) {
      if (event.kind == FaultKind::kBadShare ||
          event.kind == FaultKind::kInconsistentMask ||
          event.kind == FaultKind::kEquivocateSubmit ||
          event.kind == FaultKind::kPoisonUpdate) {
        saw_byzantine = true;
      }
    }
  }
  EXPECT_TRUE(saw_byzantine);
}

TEST(FaultPlanTest, ZeroByzantineRateKeepsOldSeedsBitIdentical) {
  // byzantine_rate = 0 (the default) must not perturb the RNG stream of
  // pre-PR-9 random plans: seeded chaos suites stay reproducible.
  FaultPlanOptions old_options;
  FaultPlanOptions new_options;
  new_options.byzantine_rate = 0.0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_EQ(FaultPlan::Random(seed, old_options).ToString(),
              FaultPlan::Random(seed, new_options).ToString());
  }
}

TEST(FaultInjectorTest, ByzantineQueriesTrackRounds) {
  auto plan = FaultPlan::Parse(
      "bad-share owner 3 @1..2; equivocate-submit owner 2 @1; "
      "inconsistent-mask owner 0 @1; poison-update owner 4 @1 *50");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 6, 3);
  injector.BeginRound(0);
  EXPECT_FALSE(injector.OwnerForgesShare(3));
  EXPECT_FALSE(injector.OwnerEquivocates(2));
  EXPECT_FALSE(injector.OwnerInconsistentMask(0));
  EXPECT_EQ(injector.OwnerPoisonMagnitude(4), 0.0);
  injector.BeginRound(1);
  EXPECT_TRUE(injector.OwnerForgesShare(3));
  EXPECT_FALSE(injector.OwnerForgesShare(2));
  EXPECT_TRUE(injector.OwnerEquivocates(2));
  EXPECT_TRUE(injector.OwnerInconsistentMask(0));
  EXPECT_EQ(injector.OwnerPoisonMagnitude(4), 50.0);
  injector.BeginRound(2);
  EXPECT_TRUE(injector.OwnerForgesShare(3));  // Interval end inclusive.
  EXPECT_FALSE(injector.OwnerEquivocates(2));
  EXPECT_EQ(injector.OwnerPoisonMagnitude(4), 0.0);
}

TEST(FaultPlanTest, RandomPlansAlwaysValidate) {
  FaultPlanOptions options;  // 9 owners, 5 miners, 10 rounds.
  const size_t threshold = options.num_owners / 2 + 1;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan plan = FaultPlan::Random(seed, options);
    EXPECT_TRUE(plan.Validate(options.num_owners, options.num_miners,
                              threshold)
                    .ok())
        << "seed " << seed << "\n"
        << plan.ToString();
  }
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  FaultPlanOptions options;
  EXPECT_EQ(FaultPlan::Random(7, options).ToString(),
            FaultPlan::Random(7, options).ToString());
  // Different seeds should (essentially always) differ.
  EXPECT_NE(FaultPlan::Random(7, options).ToString(),
            FaultPlan::Random(8, options).ToString());
}

TEST(FaultInjectorTest, CrashAndRecoverWindowsTrackRounds) {
  auto plan = FaultPlan::Parse(
      "crash owner 2 @1; recover owner 2 @3; crash miner 1 @2");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);

  injector.BeginRound(0);
  EXPECT_FALSE(injector.OwnerOffline(2));
  EXPECT_FALSE(injector.MinerOffline(1));
  injector.BeginRound(1);
  EXPECT_TRUE(injector.OwnerOffline(2));
  injector.BeginRound(2);
  EXPECT_TRUE(injector.OwnerOffline(2));
  EXPECT_TRUE(injector.MinerOffline(1));
  injector.BeginRound(3);
  EXPECT_FALSE(injector.OwnerOffline(2));  // Recovered.
  EXPECT_TRUE(injector.MinerOffline(1));   // Never recovers.
}

TEST(FaultInjectorTest, OutOfOrderCrashRecoverReplaysByRound) {
  // The recover is listed first; the latest event at or before the round
  // must still decide, so miner 0 is offline in [2, 5) and back at 5.
  auto plan = FaultPlan::Parse("recover miner 0 @5; crash miner 0 @2");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);

  injector.BeginRound(3);
  EXPECT_TRUE(injector.MinerOffline(0));
  injector.BeginRound(5);
  EXPECT_FALSE(injector.MinerOffline(0));
  injector.BeginRound(6);
  EXPECT_FALSE(injector.MinerOffline(0));
}

TEST(FaultInjectorTest, SubmitDropBudgetIsPerRound) {
  auto plan = FaultPlan::Parse("drop-submit owner 1 @2 x2");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);

  injector.BeginRound(1);
  EXPECT_FALSE(injector.DropSubmissionAttempt(1));
  injector.BeginRound(2);
  EXPECT_TRUE(injector.DropSubmissionAttempt(1));
  EXPECT_TRUE(injector.DropSubmissionAttempt(1));
  EXPECT_FALSE(injector.DropSubmissionAttempt(1));  // Budget spent.
  EXPECT_FALSE(injector.DropSubmissionAttempt(0));  // Other owners clean.
  injector.BeginRound(3);
  EXPECT_FALSE(injector.DropSubmissionAttempt(1));  // Not re-armed.
}

TEST(FaultInjectorTest, SlowWindowAddsOwnerDelay) {
  auto plan = FaultPlan::Parse("slow owner 1 @1..2 +5000us");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);
  injector.BeginRound(0);
  EXPECT_EQ(injector.OwnerExtraDelayUs(1), 0u);
  injector.BeginRound(1);
  EXPECT_EQ(injector.OwnerExtraDelayUs(1), 5000u);
  EXPECT_EQ(injector.OwnerExtraDelayUs(0), 0u);
  injector.BeginRound(3);
  EXPECT_EQ(injector.OwnerExtraDelayUs(1), 0u);
}

net::Message MinerMessage(uint32_t from, uint32_t to) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = {1, 2, 3};
  return msg;
}

TEST(FaultInjectorTest, FilterDropsTrafficTouchingCrashedMiners) {
  auto plan = FaultPlan::Parse("crash miner 1 @0");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 4);
  injector.BeginRound(0);
  EXPECT_TRUE(injector.FilterMessage(MinerMessage(1, 2)).drop);
  EXPECT_TRUE(injector.FilterMessage(MinerMessage(2, 1)).drop);
  EXPECT_FALSE(injector.FilterMessage(MinerMessage(0, 2)).drop);
}

TEST(FaultInjectorTest, PartitionDropsCrossCellTrafficOnly) {
  auto plan = FaultPlan::Parse("partition miners 0,1 @0");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 5);
  injector.BeginRound(0);
  EXPECT_FALSE(injector.FilterMessage(MinerMessage(0, 1)).drop);  // Same cell.
  EXPECT_FALSE(injector.FilterMessage(MinerMessage(2, 3)).drop);  // Same cell.
  EXPECT_TRUE(injector.FilterMessage(MinerMessage(0, 2)).drop);
  EXPECT_TRUE(injector.FilterMessage(MinerMessage(3, 1)).drop);
  EXPECT_FALSE(injector.MinersReachable(0, 4));
  EXPECT_TRUE(injector.MinersReachable(2, 4));
  // Window over: everything flows again.
  injector.BeginRound(1);
  EXPECT_FALSE(injector.FilterMessage(MinerMessage(0, 2)).drop);
  EXPECT_TRUE(injector.MinersReachable(0, 2));
}

TEST(FaultInjectorTest, DuplicateWindowFansOutSenderTraffic) {
  auto plan = FaultPlan::Parse("duplicate miner 0 @0..1");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);
  injector.BeginRound(0);
  EXPECT_EQ(injector.FilterMessage(MinerMessage(0, 1)).duplicates, 1u);
  EXPECT_EQ(injector.FilterMessage(MinerMessage(1, 0)).duplicates, 0u);
  injector.BeginRound(2);
  EXPECT_EQ(injector.FilterMessage(MinerMessage(0, 1)).duplicates, 0u);
}

TEST(FaultInjectorTest, ReorderWindowJittersDeterministically) {
  auto plan = FaultPlan::Parse("reorder miner 0 @0");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);
  injector.BeginRound(0);
  net::Message msg = MinerMessage(0, 1);
  msg.deliver_at_us = 1234;
  uint64_t first = injector.FilterMessage(msg).extra_delay_us;
  EXPECT_EQ(injector.FilterMessage(msg).extra_delay_us, first);
  // Non-reordering senders are untouched.
  EXPECT_EQ(injector.FilterMessage(MinerMessage(1, 0)).extra_delay_us, 0u);
}

TEST(FaultInjectorTest, ExecutedScheduleRecordsWhatFired) {
  auto plan = FaultPlan::Parse("crash owner 1 @0; recover owner 1 @2");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan, 4, 3);
  injector.BeginRound(0);
  injector.BeginRound(1);
  injector.BeginRound(2);
  injector.RecordExecuted(2, "owner 1 recovered on chain");
  EXPECT_GE(injector.executed_events(), 3u);
  std::string json = injector.ExecutedScheduleJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("owner 1 recovered on chain"), std::string::npos);
}

}  // namespace
}  // namespace bcfl::fault
