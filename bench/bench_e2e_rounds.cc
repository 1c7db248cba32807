// End-to-end round engine timing. The round engine fans each round's
// per-owner work (train, encode, mask, payload) across a thread pool and
// replays submissions in canonical owner order. This binary times pool 1
// against one pool thread per hardware thread on a training-heavy
// cross-silo shape (8x the data, 40 local epochs), where training
// dominates the round, checks that the two sessions are identical, and
// drops BENCH_e2e.json in the working directory for the CI bench_diff
// gate; scripts/ci_check.sh asserts the >= 2x floor on >= 4 pool
// threads. Pool-size invariance and the frozen session vectors are
// ctest's (RoundEngineTest, DropoutRecoveryTest, ByzantineTest). The exit
// status reflects the identity check only.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "core/coordinator.h"
#include "core/session_summary.h"
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

/// The data and epochs of sessionbench's silo_train workload (8x the
/// default 5,620 instances, 40 local epochs) on the paper roster, cut to
/// 3 rounds: training dominates the round.
core::BcflConfig TrainingHeavyConfig() {
  core::BcflConfig config;
  config.num_owners = 9;
  config.num_miners = 3;
  config.num_groups = 3;
  config.rounds = 3;
  config.seed = 42;
  config.seed_e = 7;
  config.local.epochs = 40;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 44'960;
  return config;
}

}  // namespace

int main() {
  const size_t hw_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  std::printf("End-to-end round engine bench (n=9 roster)\n");

  // ---- Timed pool-1-vs-pool-N runs + identity gate ----------------------
  PoolPair heavy("training_heavy", TrainingHeavyConfig());
  if (!heavy.Run()) return 1;
  std::printf("equivalence: pool_size_invariant=%s\n",
              heavy.identical ? "ok" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "e2e_rounds");
  json.Field("owners", static_cast<size_t>(9));
  json.Field("hardware_threads", hw_threads);
  json.Field("pool_threads", heavy.pooled.pool_threads);
  json.BeginObject("equivalence");
  json.Field("pool_size_invariant", heavy.identical);
  json.EndObject();
  json.Field("all_equivalent", heavy.identical);
  heavy.WriteJson(&json);
  json.EndObject();

  const char* out_path = "BENCH_e2e.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  return heavy.identical ? 0 : 1;
}
