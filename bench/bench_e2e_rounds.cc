// End-to-end round engine gate. The round engine fans each round's
// per-owner work (train, encode, mask, payload) across a thread pool and
// replays submissions in canonical owner order, so nothing it commits may
// depend on the pool size. This binary asserts that — same per-round SV
// vectors, global model and canonical chain tip for pool 1 and pool N,
// clean and under faults — checks the faulted session against its frozen
// vector (the retired serial round loop's output, tests/frozen_sessions.h),
// times pool 1 against pool N, and drops BENCH_e2e.json in the working
// directory for the CI bench_diff gate.
//
// Two timed shapes, because the fan-out only pays where per-owner work is
// large: the paper roster (n=9, a few hundred instances per owner, 2
// epochs), where it does not, and a training-heavy cross-silo shape (8x
// the data, 40 local epochs), where training dominates the round. The
// bench reports both speed-ups; scripts/ci_check.sh asserts the >= 2x
// floor on the training-heavy one when the pool has >= 4 threads. The
// exit status reflects identity failures only, so sanitizer builds run
// this binary for its checks without needing a timing result.
//
// Flags: --quick  fewer rounds and smaller roster sessions (CI smoke mode).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "core/coordinator.h"
#include "core/session_summary.h"
#include "frozen_sessions.h"
#include "obs/json_writer.h"

namespace {

using namespace bcfl;
using bcfl::obs::JsonWriter;

struct SessionStats {
  double wall_seconds = 0.0;
  core::BcflRunResult result;
  std::string summary;  ///< SessionSummary JSON.
  size_t pool_threads = 1;
};

/// Creates and runs one full session; only Run() (the R rounds) is
/// timed — dataset synthesis and setup do not depend on the pool.
bool RunSession(core::BcflConfig config, SessionStats* stats) {
  auto coordinator = core::BcflCoordinator::Create(std::move(config));
  if (!coordinator.ok()) {
    std::printf("  !! Create failed: %s\n",
                coordinator.status().ToString().c_str());
    return false;
  }
  Stopwatch timer;
  auto result = (*coordinator)->Run();
  stats->wall_seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::printf("  !! Run failed: %s\n", result.status().ToString().c_str());
    return false;
  }
  stats->result = std::move(result).value();
  stats->summary = core::SummarizeSession(
                       (*coordinator)->engine().CanonicalChain(), stats->result)
                       .ToJson();
  stats->pool_threads = (*coordinator)->pool_threads_in_use();
  return true;
}

/// Everything the chain and the evaluation make visible must match: the
/// summary digests every SV, weight and accuracy bit plus the chain tip.
bool SameRun(const SessionStats& a, const SessionStats& b,
             const char* label) {
  const bool same = a.summary == b.summary &&
                    a.result.retired_at == b.result.retired_at;
  if (!same) std::printf("  !! %s diverged\n", label);
  return same;
}

/// Pool 1 against one pool thread per hardware thread on one shape.
struct PoolPair {
  PoolPair(const char* name, core::BcflConfig config)
      : name(name), config(std::move(config)) {}

  const char* name;
  core::BcflConfig config;
  SessionStats single;
  SessionStats pooled;
  bool identical = false;

  bool Run() {
    config.pool_threads = 0;  // One per hardware thread.
    if (!RunSession(config, &pooled)) return false;
    config.pool_threads = 1;
    if (!RunSession(config, &single)) return false;
    identical = SameRun(single, pooled, name);
    std::printf("%-15s pool 1: %.2f s, pool %zu: %.2f s -> %.2fx\n", name,
                single.wall_seconds, pooled.pool_threads, pooled.wall_seconds,
                speedup());
    return true;
  }

  double speedup() const {
    return pooled.wall_seconds > 0 ? single.wall_seconds / pooled.wall_seconds
                                   : 0.0;
  }

  void WriteJson(JsonWriter* json) const {
    json->BeginObject(name);
    json->Field("rounds", static_cast<size_t>(config.rounds));
    json->Field("instances", config.digits.num_instances);
    json->Field("epochs", config.local.epochs);
    json->Field("pool1_wall_s", single.wall_seconds);
    json->Field("pool_wall_s", pooled.wall_seconds);
    json->Field("speedup", speedup());
    json->EndObject();
  }
};

core::BcflConfig PaperRosterConfig(bool quick) {
  core::BcflConfig config;
  config.num_owners = 9;
  config.num_miners = 3;
  config.num_groups = 3;
  config.rounds = quick ? 2 : 4;
  config.seed = 42;
  config.seed_e = 7;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = quick ? 600 : 1200;
  return config;
}

/// The data and epochs of sessionbench's silo_train workload (8x the
/// default 5,620 instances, 40 local epochs) on this bench's roster, cut
/// to 3 rounds: training dominates the round.
core::BcflConfig TrainingHeavyConfig() {
  core::BcflConfig config = PaperRosterConfig(/*quick=*/false);
  config.rounds = 3;
  config.local.epochs = 40;
  config.digits.num_instances = 44'960;
  return config;
}

/// Faulted identity: the pool size must not disturb the dropout /
/// recovery / retry machinery either, and the result must be the frozen
/// vector — this is test_dropout_recovery's FaultableConfig plus plan.
void CheckFaulted(bool* pool_size_ok, bool* frozen_ok) {
  core::BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 3;
  config.num_groups = 2;
  config.rounds = 3;
  config.seed = 21;
  config.seed_e = 5;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  config.fault_plan = *fault::FaultPlan::Parse(
      "crash owner 2 @1; drop-submit owner 1 @2 x2");
  *pool_size_ok = *frozen_ok = false;
  config.pool_threads = 1;
  SessionStats single;
  if (!RunSession(config, &single)) return;
  config.pool_threads = 3;
  SessionStats pooled;
  if (!RunSession(config, &pooled)) return;
  *pool_size_ok = SameRun(single, pooled, "faulted pool-1-vs-pool-3");
  *frozen_ok = single.summary == core::frozen::kFaultedSession;
  if (!*frozen_ok) {
    std::printf("  !! faulted session left its frozen vector:\n"
                "     got  %s\n     want %s\n",
                single.summary.c_str(), core::frozen::kFaultedSession);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t hw_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  std::printf("End-to-end round engine bench (n=9 roster%s)\n",
              quick ? ", quick" : "");

  // ---- Timed pool-1-vs-pool-N runs + identity gate ----------------------
  PoolPair roster("roster", PaperRosterConfig(quick));
  PoolPair heavy("training_heavy", TrainingHeavyConfig());
  if (!roster.Run() || !heavy.Run()) return 1;
  bool faulted_ok = false, frozen_ok = false;
  CheckFaulted(&faulted_ok, &frozen_ok);

  struct NamedCheck {
    const char* name;
    bool ok;
  };
  const NamedCheck checks[] = {
      {"pool_size_invariant", roster.identical && heavy.identical},
      {"faulted_identical", faulted_ok},
      {"frozen_vector", frozen_ok},
  };
  bool all_ok = true;
  std::printf("equivalence:");
  for (const NamedCheck& c : checks) {
    all_ok = all_ok && c.ok;
    std::printf(" %s=%s", c.name, c.ok ? "ok" : "FAIL");
  }
  std::printf("\n");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "e2e_rounds");
  json.Field("quick", quick);
  json.Field("owners", static_cast<size_t>(9));
  json.Field("hardware_threads", hw_threads);
  json.Field("pool_threads", heavy.pooled.pool_threads);
  json.BeginObject("equivalence");
  for (const NamedCheck& c : checks) json.Field(c.name, c.ok);
  json.EndObject();
  json.Field("all_equivalent", all_ok);
  roster.WriteJson(&json);
  heavy.WriteJson(&json);
  json.EndObject();

  const char* out_path = "BENCH_e2e.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  return all_ok ? 0 : 1;
}
