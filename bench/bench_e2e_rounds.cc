// End-to-end round engine timing. The round engine fans each round's
// per-owner work (train, encode, mask, payload) across a thread pool and
// replays submissions in canonical owner order. This binary times pool 1
// against one pool thread per hardware thread on a training-heavy
// cross-silo shape (8x the data, 40 local epochs), where training
// dominates the round, in 5 pairs that alternate which pool runs first;
// it checks that all 10 sessions are identical, and drops BENCH_e2e.json
// in the working directory for the CI bench_diff gate, with the median
// per-pair speedup; scripts/ci_check.sh asserts the >= 2x floor on it on
// >= 4 pool threads. Pool-size invariance and the frozen session vectors
// are ctest's (RoundEngineTest, DropoutRecoveryTest, ByzantineTest). The
// exit status reflects the identity check only.

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

/// Pool 1 against one pool thread per hardware thread on one shape, in
/// kPairs back-to-back pairs that alternate which pool runs first, so
/// drift within a pair favours neither. The speedup is the median of the
/// per-pair ratios: on a shared host a woken worker can wait for a vCPU,
/// and a single pair has read anywhere from 0.9x to 3.4x.
struct PoolPairs {
  static constexpr size_t kPairs = 5;

  PoolPairs(const char* name, core::BcflConfig config)
      : name(name), config(std::move(config)) {}

  const char* name;
  core::BcflConfig config;
  std::vector<double> single_s, pooled_s, ratios;
  size_t pool_threads = 1;
  bool identical = true;  ///< Every session matches the first.

  bool Run() {
    SessionStats first;
    for (size_t pair = 0; pair < kPairs; ++pair) {
      SessionStats single, pooled;
      for (const bool run_pooled : {pair % 2 == 0, pair % 2 != 0}) {
        config.pool_threads = run_pooled ? 0 : 1;  // 0: one per hw thread.
        SessionStats& stats = run_pooled ? pooled : single;
        if (!RunSession(config, &stats)) return false;
        if (first.summary.empty()) {
          first = stats;
        } else {
          identical = SameRun(first, stats, name) && identical;
        }
      }
      pool_threads = pooled.pool_threads;
      single_s.push_back(single.wall_seconds);
      pooled_s.push_back(pooled.wall_seconds);
      ratios.push_back(pooled.wall_seconds > 0
                           ? single.wall_seconds / pooled.wall_seconds
                           : 0.0);
      std::printf("%-15s pair %zu: pool 1 %.2f s, pool %zu %.2f s -> %.2fx\n",
                  name, pair, single.wall_seconds, pool_threads,
                  pooled.wall_seconds, ratios.back());
    }
    std::printf("%-15s median of %zu pairs: %.2fx\n", name, kPairs,
                speedup());
    return true;
  }

  static double Median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }

  double speedup() const { return Median(ratios); }

  void WriteJson(JsonWriter* json) const {
    json->BeginObject(name);
    json->Field("rounds", static_cast<size_t>(config.rounds));
    json->Field("instances", config.digits.num_instances);
    json->Field("epochs", config.local.epochs);
    json->Field("pairs", kPairs);
    json->Field("pool1_wall_s", Median(single_s));
    json->Field("pool_wall_s", Median(pooled_s));
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
  PoolPairs heavy("training_heavy", TrainingHeavyConfig());
  if (!heavy.Run()) return 1;
  std::printf("equivalence: pool_size_invariant=%s\n",
              heavy.identical ? "ok" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "e2e_rounds");
  json.Field("owners", static_cast<size_t>(9));
  json.Field("hardware_threads", hw_threads);
  json.Field("pool_threads", heavy.pool_threads);
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
