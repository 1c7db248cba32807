// bcfl_sim — command-line driver for the full BCFL protocol.
//
//   $ ./tools/bcfl_sim --rounds 10 --sigma 1.0 --reward 1000000 --byzantine 1
//
// Runs setup, R on-chain training rounds with masked updates, GroupSV
// contribution evaluation and (optionally) reward distribution, then
// prints a session report. `--byzantine K` makes the first K miners
// fraudulent leaders (SV inflation) to demonstrate rejection.
//
// Chaos testing: `--fault-plan SPEC` injects a hand-written fault DSL
// document (see src/fault/fault_plan.h for the grammar), `--fault-seed N`
// generates a random plan within the protocol's safety envelope, and
// `--chaos-sweep N` runs N consecutive random-plan sessions (seeds
// fault-seed .. fault-seed+N-1), exiting non-zero if any fails to
// converge. The executed fault schedule is exported into metrics.json.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/adversary.h"
#include "common/logging.h"
#include "core/coordinator.h"
#include "core/session_summary.h"
#include "crypto/sha256.h"
#include "fault/fault_plan.h"
#include "obs/exporter.h"
#include "obs/http_exporter.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/round_ledger.h"
#include "obs/trace.h"

namespace {

struct CliOptions {
  bcfl::core::BcflConfig config;
  size_t byzantine = 0;
  bool verbose = false;
  std::string metrics_out = "metrics.json";
  std::string trace_out = "trace.json";
  std::string fault_plan_spec;
  uint64_t fault_seed = 0;
  bool have_fault_seed = false;
  size_t chaos_sweep = 0;
  double chaos_byzantine_rate = 0.0;
  int metrics_port = -1;  ///< -1 = no HTTP endpoint; 0 = ephemeral port.
  std::string ledger_out;
  bool obs_off = false;
  std::string state_dir;
  uint64_t checkpoint_every = 1;
  bool resume = false;
  bool ignore_kill_faults = false;
};

/// Exit code of a process death staged by a `kill` fault — distinct from
/// failure (1) and usage (2) so the restart supervisor in ci_check.sh can
/// tell "killed as planned" from "actually broke".
constexpr int kKilledExitCode = 77;

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --owners N      data owners (default 9)\n"
      "  --miners N      blockchain miners (default 5)\n"
      "  --rounds N      FL rounds R (default 10)\n"
      "  --groups M      GroupSV group count m (default 3)\n"
      "  --sigma S       data-quality gradient (default 0.0, no noise)\n"
      "  --instances N   dataset size (default 5620)\n"
      "  --seed N        master seed (default 42)\n"
      "  --reward N      reward pool to distribute on chain (default 0)\n"
      "  --byzantine K   make the first K miners fraudulent leaders\n"
      "  --pool-threads N round engine worker threads (default: hardware;\n"
      "                  bit-identical results for any N, see DESIGN.md §13)\n"
      "  --fault-plan S  chaos DSL document (e.g. 'crash owner 2 @1')\n"
      "  --fault-seed N  random fault plan within the safety envelope\n"
      "  --chaos-sweep N run N random-plan sessions; non-zero exit on any\n"
      "                  failed/hung round\n"
      "  --chaos-byzantine R  per-owner byzantine-event probability for\n"
      "                  random plans (bad-share / equivocate / poison /\n"
      "                  inconsistent-mask; default 0 = crash-only)\n"
      "  --norm-bound F  L2 bound on decoded aggregates; >0 arms the\n"
      "                  poisoning gate + norm audit (default 0 = off)\n"
      "  --metrics-out F metrics JSON path (default metrics.json, - skips)\n"
      "  --trace-out F   Chrome trace JSON path (default trace.json, - "
      "skips)\n"
      "  --metrics-port P serve Prometheus text on http://127.0.0.1:P/metrics\n"
      "                  while the session runs (0 picks an ephemeral port)\n"
      "  --ledger-out F  per-round protocol ledger JSONL path\n"
      "  --state-dir D   durable session state (append-only block log +\n"
      "                  crash-consistent checkpoints) in directory D\n"
      "  --checkpoint-every N  rounds between checkpoints (default 1)\n"
      "  --resume        continue a killed session from --state-dir\n"
      "                  (bit-identical to the uninterrupted run)\n"
      "  --ignore-kill-faults  disarm `kill` events in the fault plan (the\n"
      "                  uninterrupted baseline of the crash-restart check)\n"
      "  --obs MODE      on|off: off disables metrics + tracing for this\n"
      "                  process (same as BCFL_OBS=off), so ledger records\n"
      "                  carry an empty phase_us\n"
      "  --verbose       INFO-level protocol logging\n"
      "  --help          this message\n",
      argv0);
}

/// Parses `text` as a whole-string, non-negative integer no larger than
/// `max` (sign, spaces and trailing characters all refused). Prints why
/// and returns false otherwise.
template <typename T>
bool ParseCount(const char* flag, const char* text, T* out,
                T max = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    std::fprintf(stderr, "%s takes an integer in [0, %llu], got '%s'\n", flag,
                 static_cast<unsigned long long>(max), text);
    return false;
  }
  *out = value;
  return true;
}

/// ParseCount for real-valued flags: a whole-string finite number in
/// [0, max].
bool ParseReal(const char* flag, const char* text, double* out,
               double max = std::numeric_limits<double>::infinity()) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0 || value > max) {
    std::fprintf(stderr, "%s takes a finite number in [0, %g], got '%s'\n",
                 flag, max, text);
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, auto* out) {
      const char* v = next_value(flag);
      return v != nullptr && ParseCount(flag, v, out);
    };
    auto real = [&](const char* flag, double* out) {
      const char* v = next_value(flag);
      return v != nullptr && ParseReal(flag, v, out);
    };
    if (arg == "--help") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else if (arg == "--owners") {
      if (!count("--owners", &options->config.num_owners)) return false;
    } else if (arg == "--miners") {
      if (!count("--miners", &options->config.num_miners)) return false;
    } else if (arg == "--rounds") {
      if (!count("--rounds", &options->config.rounds)) return false;
    } else if (arg == "--groups") {
      if (!count("--groups", &options->config.num_groups)) return false;
    } else if (arg == "--sigma") {
      if (!real("--sigma", &options->config.sigma)) return false;
    } else if (arg == "--instances") {
      if (!count("--instances", &options->config.digits.num_instances)) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!count("--seed", &options->config.seed)) return false;
    } else if (arg == "--reward") {
      if (!count("--reward", &options->config.reward_pool)) return false;
    } else if (arg == "--byzantine") {
      if (!count("--byzantine", &options->byzantine)) return false;
    } else if (arg == "--pool-threads") {
      if (!count("--pool-threads", &options->config.pool_threads)) {
        return false;
      }
    } else if (arg == "--fault-plan") {
      const char* v = next_value("--fault-plan");
      if (v == nullptr) return false;
      options->fault_plan_spec = v;
    } else if (arg == "--fault-seed") {
      if (!count("--fault-seed", &options->fault_seed)) return false;
      options->have_fault_seed = true;
    } else if (arg == "--chaos-sweep") {
      if (!count("--chaos-sweep", &options->chaos_sweep)) return false;
    } else if (arg == "--chaos-byzantine") {
      const char* v = next_value("--chaos-byzantine");
      if (v == nullptr ||
          !ParseReal("--chaos-byzantine", v, &options->chaos_byzantine_rate,
                     1.0)) {
        return false;
      }
    } else if (arg == "--norm-bound") {
      if (!real("--norm-bound", &options->config.update_norm_bound)) {
        return false;
      }
    } else if (arg == "--metrics-port") {
      const char* v = next_value("--metrics-port");
      uint16_t port = 0;
      if (v == nullptr || !ParseCount("--metrics-port", v, &port)) {
        return false;
      }
      options->metrics_port = port;
    } else if (arg == "--ledger-out") {
      const char* v = next_value("--ledger-out");
      if (v == nullptr) return false;
      options->ledger_out = v;
    } else if (arg == "--state-dir") {
      const char* v = next_value("--state-dir");
      if (v == nullptr) return false;
      options->state_dir = v;
    } else if (arg == "--checkpoint-every") {
      if (!count("--checkpoint-every", &options->checkpoint_every)) {
        return false;
      }
    } else if (arg == "--resume") {
      options->resume = true;
    } else if (arg == "--ignore-kill-faults") {
      options->ignore_kill_faults = true;
    } else if (arg == "--obs" || arg.rfind("--obs=", 0) == 0) {
      std::string mode;
      if (arg == "--obs") {
        const char* v = next_value("--obs");
        if (v == nullptr) return false;
        mode = v;
      } else {
        mode = arg.substr(std::strlen("--obs="));
      }
      if (mode == "off" || mode == "0") {
        options->obs_off = true;
      } else if (mode == "on" || mode == "1") {
        options->obs_off = false;
      } else {
        std::fprintf(stderr, "--obs takes on|off, got '%s'\n", mode.c_str());
        return false;
      }
    } else if (arg == "--metrics-out") {
      const char* v = next_value("--metrics-out");
      if (v == nullptr) return false;
      options->metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next_value("--trace-out");
      if (v == nullptr) return false;
      options->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
  }
  return true;
}

bcfl::fault::FaultPlanOptions PlanOptionsFor(const CliOptions& options) {
  const bcfl::core::BcflConfig& config = options.config;
  bcfl::fault::FaultPlanOptions plan_options;
  plan_options.num_owners = config.num_owners;
  plan_options.num_miners = static_cast<uint32_t>(config.num_miners);
  plan_options.rounds = config.rounds;
  plan_options.shamir_threshold = config.secure_agg_threshold;
  plan_options.byzantine_rate = options.chaos_byzantine_rate;
  return plan_options;
}

/// Random-plan convergence sweep: every seed must complete all rounds.
/// Returns the number of failed seeds. When a ledger is attached, every
/// session appends its per-round records to the same JSONL stream.
size_t RunChaosSweep(const CliOptions& options,
                     bcfl::obs::RoundLedger* ledger) {
  size_t failures = 0;
  for (size_t k = 0; k < options.chaos_sweep; ++k) {
    uint64_t seed = options.fault_seed + k;
    bcfl::core::BcflConfig config = options.config;
    config.fault_plan =
        bcfl::fault::FaultPlan::Random(seed, PlanOptionsFor(options));
    auto coordinator = bcfl::core::BcflCoordinator::Create(config);
    if (!coordinator.ok()) {
      std::printf("chaos seed %llu: SETUP FAILED: %s\n",
                  static_cast<unsigned long long>(seed),
                  coordinator.status().ToString().c_str());
      ++failures;
      continue;
    }
    (*coordinator)->set_round_ledger(ledger);
    auto result = (*coordinator)->Run();
    if (!result.ok()) {
      std::printf("chaos seed %llu: FAILED: %s\n",
                  static_cast<unsigned long long>(seed),
                  result.status().ToString().c_str());
      std::printf("  plan:\n%s\n", config.fault_plan.ToString().c_str());
      ++failures;
      continue;
    }
    if (result->round_accuracies.size() != config.rounds) {
      std::printf("chaos seed %llu: HUNG after %zu/%u rounds\n",
                  static_cast<unsigned long long>(seed),
                  result->round_accuracies.size(), config.rounds);
      ++failures;
      continue;
    }
    std::printf("chaos seed %llu: ok (%zu fault events, %zu owners retired, "
                "%zu slashed, %zu blocks)\n",
                static_cast<unsigned long long>(seed),
                config.fault_plan.events.size(), result->retired_at.size(),
                result->slashed_at.size(), result->blocks_committed);
  }
  std::printf("\nchaos sweep: %zu/%zu seeds converged\n",
              options.chaos_sweep - failures, options.chaos_sweep);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.config.local.epochs = 5;
  options.config.local.learning_rate = 0.05;
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.verbose) {
    bcfl::Logger::Global().set_min_level(bcfl::LogLevel::kInfo);
  }
  if (options.obs_off) {
    bcfl::obs::MetricsRegistry::set_enabled(false);
    bcfl::obs::Tracer::Global().set_enabled(false);
  }

  // Live sinks first, so a scrape or a tail works from round 0 on.
  bcfl::obs::HttpExporter http_exporter;
  if (options.metrics_port >= 0) {
    bcfl::Status started =
        http_exporter.Start(static_cast<uint16_t>(options.metrics_port));
    if (!started.ok()) {
      std::fprintf(stderr, "--metrics-port: %s\n",
                   started.ToString().c_str());
      return 2;
    }
  }
  if (options.resume && options.state_dir.empty()) {
    std::fprintf(stderr, "--resume needs --state-dir\n");
    return 2;
  }
  bcfl::obs::RoundLedger ledger;
  // On --resume the ledger reopens *after* the checkpoint is restored
  // (below), keeping exactly the records the checkpoint covers.
  if (!options.ledger_out.empty() && !options.resume) {
    bcfl::Status opened = ledger.Open(options.ledger_out);
    if (!opened.ok()) {
      std::fprintf(stderr, "--ledger-out: %s\n", opened.ToString().c_str());
      return 2;
    }
  }
  bcfl::obs::RoundLedger* ledger_ptr = ledger.is_open() ? &ledger : nullptr;

  std::printf("obs sinks: %s", options.obs_off ? "off" : "on");
  if (!options.obs_off) {
    if (options.metrics_out != "-") {
      std::printf("  metrics -> %s", options.metrics_out.c_str());
    }
    if (options.trace_out != "-") {
      std::printf("  trace -> %s", options.trace_out.c_str());
    }
  }
  if (http_exporter.running()) {
    std::printf("  http -> http://127.0.0.1:%u/metrics", http_exporter.port());
  }
  if (ledger.is_open()) {
    std::printf("  ledger -> %s", ledger.path().c_str());
  }
  std::printf("\n");

  if (options.chaos_sweep > 0) {
    std::printf("chaos sweep: %zu seeds starting at %llu (%u owners, %zu "
                "miners, R=%u)\n",
                options.chaos_sweep,
                static_cast<unsigned long long>(options.fault_seed),
                options.config.num_owners, options.config.num_miners,
                options.config.rounds);
    return RunChaosSweep(options, ledger_ptr) == 0 ? 0 : 1;
  }

  if (!options.fault_plan_spec.empty()) {
    auto plan = bcfl::fault::FaultPlan::Parse(options.fault_plan_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --fault-plan: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    options.config.fault_plan = *plan;
  } else if (options.have_fault_seed) {
    options.config.fault_plan = bcfl::fault::FaultPlan::Random(
        options.fault_seed, PlanOptionsFor(options));
  }
  if (!options.config.fault_plan.empty()) {
    std::printf("fault plan (%zu events):\n%s\n",
                options.config.fault_plan.events.size(),
                options.config.fault_plan.ToString().c_str());
  }

  std::printf("BCFL session: %u owners, %zu miners, R=%u rounds, m=%u "
              "groups, sigma=%.2f\n",
              options.config.num_owners, options.config.num_miners,
              options.config.rounds, options.config.num_groups,
              options.config.sigma);

  auto coordinator = bcfl::core::BcflCoordinator::Create(options.config);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  std::printf("round engine: %zu pool threads\n",
              (*coordinator)->pool_threads_in_use());
  // Spans recorded from here on also carry simulated network time.
  bcfl::obs::Tracer::Global().AttachSimClock(
      &(*coordinator)->engine().network().clock());

  // Durable session state (PR 10): block log + checkpoints + kill
  // journal. A `kill` fault then exits with kKilledExitCode after the
  // journal entry is on disk; `--resume` picks the session back up.
  if (!options.state_dir.empty()) {
    bcfl::core::PersistenceOptions persist;
    persist.state_dir = options.state_dir;
    persist.checkpoint_every = options.checkpoint_every;
    persist.resume = options.resume;
    bcfl::Status attached = (*coordinator)->AttachPersistence(persist);
    if (!attached.ok()) {
      std::fprintf(stderr, "--state-dir: %s\n", attached.ToString().c_str());
      return 1;
    }
    (*coordinator)->set_kill_handler([](uint64_t round) {
      std::printf("fault plan killed the coordinator at round %llu; "
                  "resume with --resume --state-dir\n",
                  static_cast<unsigned long long>(round));
      std::fflush(stdout);
      std::_Exit(kKilledExitCode);
    });
    if (options.resume) {
      std::printf("resumed session: %llu completed rounds restored from the "
                  "state dir; continuing at round %llu\n",
                  static_cast<unsigned long long>(
                      (*coordinator)->start_round()),
                  static_cast<unsigned long long>(
                      (*coordinator)->start_round()));
      if (!options.ledger_out.empty()) {
        bcfl::Status reopened = ledger.OpenForResume(
            options.ledger_out,
            static_cast<size_t>((*coordinator)->start_round()),
            &(*coordinator)->restored_sv_history());
        if (!reopened.ok()) {
          std::fprintf(stderr, "--ledger-out: %s\n",
                       reopened.ToString().c_str());
          return 1;
        }
        std::printf("  ledger -> %s (kept %zu records)\n",
                    ledger.path().c_str(), ledger.rounds_written());
        ledger_ptr = &ledger;
      }
    }
  }
  if (options.ignore_kill_faults) {
    if (auto* injector = (*coordinator)->fault_injector();
        injector != nullptr) {
      injector->DisarmAllKills();
    }
  }
  (*coordinator)->set_round_ledger(ledger_ptr);
  for (size_t m = 0; m < options.byzantine; ++m) {
    auto st = (*coordinator)
                  ->InstallMinerBehavior(
                      m, bcfl::core::MakeSvInflationBehavior(
                             options.config.num_owners - 1, 1000.0));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  auto result = (*coordinator)->Run();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nchain: %zu blocks committed, %zu transactions\n",
              result->blocks_committed, result->total_transactions);
  std::printf("network: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(
                  (*coordinator)->engine().network().stats().messages_sent),
              static_cast<unsigned long long>(
                  (*coordinator)->engine().network().stats().bytes_sent));
  std::printf("\naccuracy per round:");
  for (double acc : result->round_accuracies) std::printf(" %.3f", acc);
  std::printf("\n\n%-8s %-14s %-14s", "owner", "noise sigma", "total SV");
  if (!result->rewards.empty()) std::printf(" %-12s", "reward");
  std::printf("\n");
  for (size_t i = 0; i < result->total_sv.size(); ++i) {
    std::printf("%-8zu %-14.2f %+-14.4f",
                i, options.config.sigma * static_cast<double>(i),
                result->total_sv[i]);
    if (!result->rewards.empty()) {
      std::printf(" %-12llu",
                  static_cast<unsigned long long>(result->rewards[i]));
    }
    std::printf("\n");
  }
  if (options.byzantine > 0) {
    std::printf("\n%zu fraudulent miner(s) were active; honest-majority "
                "re-execution kept the results truthful.\n",
                options.byzantine);
  }
  if (!result->retired_at.empty()) {
    std::printf("\ndropouts recovered on chain (SV frozen at retirement):");
    for (const auto& [owner, round] : result->retired_at) {
      std::printf(" owner %u @round %llu;", owner,
                  static_cast<unsigned long long>(round));
    }
    std::printf("\n");
  }
  if (!result->slashed_at.empty()) {
    std::printf("\nslashed on chain (evidence verified by every miner):");
    for (const auto& [owner, round] : result->slashed_at) {
      std::printf(" owner %u @round %llu;", owner,
                  static_cast<unsigned long long>(round));
    }
    std::printf("\n%zu accusation tx(s); %llu reward unit(s) burned.\n",
                result->slash_transactions,
                static_cast<unsigned long long>(result->reward_burned));
  }

  bcfl::obs::ExportPaths paths;
  paths.metrics_json = options.metrics_out == "-" ? "" : options.metrics_out;
  paths.trace_json = options.trace_out == "-" ? "" : options.trace_out;
  // How wide the round engine's pool was.
  paths.metrics_extra["round_engine_pool_threads"] =
      std::to_string((*coordinator)->pool_threads_in_use());
  // Which SHA-256 compressor produced this run's timings.
  paths.metrics_extra["sha256_path"] =
      std::string("\"").append(bcfl::crypto::Sha256Path()).append("\"");
  if (auto* injector = (*coordinator)->fault_injector(); injector != nullptr) {
    // The *executed* schedule (what actually fired, including view
    // changes and recoveries) plus the input plan, for triage.
    paths.metrics_extra["fault_schedule"] = injector->ExecutedScheduleJson();
    bcfl::obs::JsonWriter plan_json;
    plan_json.BeginArray();
    for (const auto& event : injector->plan().events) {
      plan_json.Element(event.ToString().c_str());
    }
    plan_json.EndArray();
    paths.metrics_extra["fault_plan"] = plan_json.str();
  }
  // Slashing outcome (PR 9): how many accusations were filed, who was
  // convicted (owner -> round) and the burned reward, for triage next to
  // the fault schedule.
  paths.metrics_extra["slash_transactions"] =
      std::to_string(result->slash_transactions);
  paths.metrics_extra["reward_burned"] = std::to_string(result->reward_burned);
  {
    bcfl::obs::JsonWriter slashed_json;
    slashed_json.BeginObject();
    for (const auto& [owner, round] : result->slashed_at) {
      slashed_json.Field(std::to_string(owner).c_str(),
                         static_cast<size_t>(round));
    }
    slashed_json.EndObject();
    paths.metrics_extra["slashed_at"] = slashed_json.str();
  }
  // Deterministic end-of-session fingerprint; the crash-restart CI stage
  // diffs it between a killed+resumed session and the uninterrupted
  // baseline byte for byte.
  paths.metrics_extra["session_summary"] =
      bcfl::core::SummarizeSession((*coordinator)->engine().CanonicalChain(),
                                   *result)
          .ToJson();
  bcfl::Status exported = bcfl::obs::ExportGlobal(paths);
  if (!exported.ok()) {
    std::fprintf(stderr, "export failed: %s\n",
                 exported.ToString().c_str());
    return 1;
  }
  if (!paths.metrics_json.empty() || !paths.trace_json.empty()) {
    std::printf("\nobservability:");
    if (!paths.metrics_json.empty()) {
      std::printf(" metrics -> %s", paths.metrics_json.c_str());
    }
    if (!paths.trace_json.empty()) {
      std::printf("  trace -> %s (chrome://tracing)",
                  paths.trace_json.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
