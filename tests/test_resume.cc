#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/trace.h"

namespace bcfl::core {
namespace {

/// Kill/restart recovery (PR 10): a coordinator killed mid-session by a
/// `kill @R` fault and resumed from its state dir must finish with results
/// bit-identical to the same session run uninterrupted — SV trajectories,
/// global weights, chain tip, counters.
class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bcfl_resume_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string StateDir(const std::string& name) const {
    return (dir_ / name).string();
  }

  BcflConfig SmallConfig(const std::string& plan) {
    BcflConfig config;
    config.num_owners = 4;
    config.num_miners = 3;
    config.rounds = 4;
    config.num_groups = 2;
    config.seed = 21;
    config.seed_e = 5;
    config.local.epochs = 1;
    config.digits.num_instances = 300;
    if (!plan.empty()) {
      auto parsed = fault::FaultPlan::Parse(plan);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      config.fault_plan = *parsed;
    }
    return config;
  }

  /// Runs the session to completion with every kill disarmed — the
  /// uninterrupted baseline the resumed run must match bit for bit.
  BcflRunResult Baseline(const BcflConfig& config) {
    auto coordinator = BcflCoordinator::Create(config);
    EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    if (auto* injector = (*coordinator)->fault_injector(); injector) {
      injector->DisarmAllKills();
    }
    auto result = (*coordinator)->Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  void ExpectBitIdentical(const BcflRunResult& a, const BcflRunResult& b) {
    EXPECT_EQ(a.per_round_sv, b.per_round_sv);
    EXPECT_EQ(a.total_sv, b.total_sv);
    EXPECT_EQ(a.round_accuracies, b.round_accuracies);
    EXPECT_TRUE(a.global_weights == b.global_weights);
    EXPECT_EQ(a.blocks_committed, b.blocks_committed);
    EXPECT_EQ(a.total_transactions, b.total_transactions);
    EXPECT_EQ(a.recover_transactions, b.recover_transactions);
    EXPECT_EQ(a.submission_retries, b.submission_retries);
    EXPECT_EQ(a.slash_transactions, b.slash_transactions);
    EXPECT_EQ(a.retired_at, b.retired_at);
    EXPECT_EQ(a.slashed_at, b.slashed_at);
  }

  /// Kill at `plan`'s round, then resume from the state dir; returns the
  /// resumed run's result and checks the kill actually fired.
  BcflRunResult KillAndResume(const BcflConfig& config,
                              const std::string& state_dir,
                              uint64_t expect_killed_round,
                              uint64_t checkpoint_every = 1) {
    PersistenceOptions persist;
    persist.state_dir = state_dir;
    persist.checkpoint_every = checkpoint_every;
    {
      auto coordinator = BcflCoordinator::Create(config);
      EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
      EXPECT_TRUE((*coordinator)->AttachPersistence(persist).ok());
      // No kill handler installed: Run() surfaces FailedPrecondition
      // instead of exiting the test process.
      auto killed = (*coordinator)->Run();
      EXPECT_TRUE(killed.status().IsFailedPrecondition())
          << killed.status().ToString();
      EXPECT_TRUE((*coordinator)->was_killed());
      EXPECT_EQ((*coordinator)->killed_round(), expect_killed_round);
    }
    persist.resume = true;
    auto coordinator = BcflCoordinator::Create(config);
    EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    Status attached = (*coordinator)->AttachPersistence(persist);
    EXPECT_TRUE(attached.ok()) << attached.ToString();
    EXPECT_LE((*coordinator)->start_round(), expect_killed_round);
    EXPECT_EQ((*coordinator)->restored_sv_history().size(),
              (*coordinator)->start_round());
    auto result = (*coordinator)->Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  std::filesystem::path dir_;
};

TEST_F(ResumeTest, Pool1KillMidSessionResumesBitIdentical) {
  BcflConfig config = SmallConfig("kill @2");
  config.pool_threads = 1;
  BcflRunResult baseline = Baseline(config);
  BcflRunResult resumed = KillAndResume(config, StateDir("pool1"), 2);
  ExpectBitIdentical(baseline, resumed);
}

TEST_F(ResumeTest, Pool3KillMidSessionResumesBitIdentical) {
  BcflConfig config = SmallConfig("kill @2");
  config.pool_threads = 3;
  BcflRunResult baseline = Baseline(config);
  BcflRunResult resumed = KillAndResume(config, StateDir("pool3"), 2);
  ExpectBitIdentical(baseline, resumed);
}

TEST_F(ResumeTest, KillAtRoundZeroResumesFromInitialCheckpoint) {
  BcflConfig config = SmallConfig("kill @0");
  BcflRunResult baseline = Baseline(config);
  BcflRunResult resumed = KillAndResume(config, StateDir("r0"), 0);
  ExpectBitIdentical(baseline, resumed);
}

TEST_F(ResumeTest, SparseCheckpointsReplayTheGap) {
  // kill @3 with a checkpoint every 2 rounds: the resume restarts at round
  // 2 and re-executes rounds 2 and 3 from the replayed chain.
  BcflConfig config = SmallConfig("kill @3");
  BcflRunResult baseline = Baseline(config);
  BcflRunResult resumed =
      KillAndResume(config, StateDir("sparse"), 3, /*checkpoint_every=*/2);
  ExpectBitIdentical(baseline, resumed);
}

TEST_F(ResumeTest, ResumeSurvivesFaultsBesidesTheKill) {
  // A dropout-recovery round before the kill: the retired roster and the
  // recover counters must survive the restart.
  BcflConfig config = SmallConfig("crash owner 3 @1; kill @2");
  BcflRunResult baseline = Baseline(config);
  BcflRunResult resumed = KillAndResume(config, StateDir("faults"), 2);
  EXPECT_FALSE(resumed.retired_at.empty());
  ExpectBitIdentical(baseline, resumed);
}

TEST_F(ResumeTest, CheckpointsAreChildrenOfTheirRoundNotOfEval) {
  // Each round's `eval` span covers the accuracy computation only; the
  // checkpoint written at the round boundary is a direct child of the
  // round, next to `eval`, not inside it.
  BcflConfig config = SmallConfig("");
  PersistenceOptions persist;
  persist.state_dir = StateDir("spans");
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE((*coordinator)->AttachPersistence(persist).ok());
  obs::Tracer::Global().Reset();  // Keep only the spans Run() opens.
  ASSERT_TRUE((*coordinator)->Run().ok());

  const std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  size_t checkpoints = 0;
  for (const auto& span : spans) {
    const auto parent = by_id.find(span.parent_id);
    const std::string parent_name =
        parent != by_id.end() ? parent->second->name : "";
    EXPECT_NE(parent_name, "eval") << span.name << " nested inside eval";
    if (span.name == "checkpoint") {
      ++checkpoints;
      EXPECT_EQ(parent_name, "round");
    }
  }
  // Rounds 0..2 checkpoint; the final round never does.
  EXPECT_EQ(checkpoints, config.rounds - 1);
}

TEST_F(ResumeTest, FreshAttachRefusesUsedStateDir) {
  BcflConfig config = SmallConfig("kill @2");
  PersistenceOptions persist;
  persist.state_dir = StateDir("used");
  {
    auto coordinator = BcflCoordinator::Create(config);
    ASSERT_TRUE(coordinator.ok());
    ASSERT_TRUE((*coordinator)->AttachPersistence(persist).ok());
    (void)(*coordinator)->Run();  // Dies at the kill, leaving state behind.
  }
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  EXPECT_TRUE((*coordinator)
                  ->AttachPersistence(persist)
                  .IsFailedPrecondition());
}

TEST_F(ResumeTest, ResumeRefusesDifferentConfig) {
  BcflConfig config = SmallConfig("kill @2");
  PersistenceOptions persist;
  persist.state_dir = StateDir("fingerprint");
  {
    auto coordinator = BcflCoordinator::Create(config);
    ASSERT_TRUE(coordinator.ok());
    ASSERT_TRUE((*coordinator)->AttachPersistence(persist).ok());
    (void)(*coordinator)->Run();
  }
  BcflConfig other = config;
  other.seed = 22;  // Different data, keys and partitions.
  persist.resume = true;
  auto coordinator = BcflCoordinator::Create(other);
  ASSERT_TRUE(coordinator.ok());
  EXPECT_TRUE((*coordinator)
                  ->AttachPersistence(persist)
                  .IsFailedPrecondition());
}

TEST_F(ResumeTest, StateDirOfAnOlderFormatFailsClosed) {
  // Version 1 of both files commits to the state root before the
  // leaf-digest one, and the block log, which opens first, refuses it; a
  // version-2 block log commits to the roots of a state that never
  // pruned, and a version-2 checkpoint also carried the chain's own
  // results. Each state dir is refused at open, never half-trusted or
  // failed mid-replay.
  struct OlderFormat {
    std::vector<const char*> files;
    char version;
    const char* refusal;
  };
  for (const OlderFormat& older :
       {OlderFormat{{"blocks.log", "checkpoint.bckp"},
                    1,
                    "unsupported block log version 1"},
        OlderFormat{{"blocks.log"}, 2, "unsupported block log version 2"},
        OlderFormat{{"checkpoint.bckp"},
                    2,
                    "unsupported checkpoint version 2"}}) {
    BcflConfig config = SmallConfig("kill @2");
    PersistenceOptions persist;
    persist.state_dir =
        StateDir(older.files.front() + std::to_string(older.version));
    {
      auto coordinator = BcflCoordinator::Create(config);
      ASSERT_TRUE(coordinator.ok());
      ASSERT_TRUE((*coordinator)->AttachPersistence(persist).ok());
      (void)(*coordinator)->Run();
    }
    // The version is a u32 LE after the 4-byte magic.
    for (const char* file : older.files) {
      std::fstream out(persist.state_dir + "/" + file,
                       std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(out.is_open()) << file;
      out.seekp(4);
      const char version[4] = {older.version, 0, 0, 0};
      out.write(version, sizeof(version));
    }
    persist.resume = true;
    auto coordinator = BcflCoordinator::Create(config);
    ASSERT_TRUE(coordinator.ok());
    Status st = (*coordinator)->AttachPersistence(persist);
    EXPECT_TRUE(st.IsUnimplemented()) << st.ToString();
    EXPECT_NE(st.ToString().find(older.refusal), std::string::npos)
        << st.ToString();
    EXPECT_EQ((*coordinator)->start_round(), 0u);
  }
}

TEST_F(ResumeTest, CheckpointRoundMustMatchTheReplayedChain) {
  // The replayed chain completed rounds 0 and 1; a checkpoint that claims
  // another resume round is refused instead of trusted.
  BcflConfig config = SmallConfig("kill @2");
  PersistenceOptions persist;
  persist.state_dir = StateDir("mismatch");
  {
    auto coordinator = BcflCoordinator::Create(config);
    ASSERT_TRUE(coordinator.ok());
    ASSERT_TRUE((*coordinator)->AttachPersistence(persist).ok());
    (void)(*coordinator)->Run();
  }
  const std::string path = persist.state_dir + "/checkpoint.bckp";
  auto cp = LoadCheckpoint(path);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  ASSERT_EQ(cp->next_round, 2u);
  cp->next_round = 1;
  ASSERT_TRUE(SaveCheckpoint(*cp, path).ok());
  persist.resume = true;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  Status st = (*coordinator)->AttachPersistence(persist);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ((*coordinator)->start_round(), 0u);
}

TEST_F(ResumeTest, ResumeOnEmptyStateDirIsNotFound) {
  BcflConfig config = SmallConfig("");
  PersistenceOptions persist;
  persist.state_dir = StateDir("empty");
  persist.resume = true;
  auto coordinator = BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  EXPECT_TRUE((*coordinator)->AttachPersistence(persist).IsNotFound());
}

}  // namespace
}  // namespace bcfl::core
