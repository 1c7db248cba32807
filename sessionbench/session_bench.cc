// sessionbench — whole-session benchmark of the BCFL protocol.
//
//   sessionbench --workload paper_r50 --seed 1 --seconds 25 --trace 0
//                --state-root .bench_build/state
//
// Runs complete BcflCoordinator sessions (setup, R masked rounds through
// consensus with on-chain GroupSV, the optional reward phase) back to back
// for --seconds, checks every session's outputs, and prints one JSON
// object as the last line of stdout:
//
//   {"correct": true, "attempted": R*sessions, "failed": 0, "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics with the program's own metrics
// registry and tracer switched off. --trace 1 switches them on for every
// other session and reports per-layer metrics read from the program's own
// spans and instruments, plus the traced-vs-untraced Run() overhead.
// RATIONALE.md explains the workloads and the metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "chain/contract_host.h"
#include "chain/miner.h"
#include "common/bytes.h"
#include "core/coordinator.h"
#include "core/fl_contract.h"
#include "core/reward_contract.h"
#include "core/slash_contract.h"
#include "core/state_keys.h"
#include "crypto/sha256.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using bcfl::Result;
using bcfl::Status;
using bcfl::core::BcflConfig;
using bcfl::core::BcflCoordinator;
using bcfl::core::BcflRunResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ----------------------------------------------------------

struct Workload {
  const char* name;
  uint32_t rounds;
  size_t instances;
  size_t epochs;
  /// Fault plan + norm gate + reward pool + durable state dir, with a
  /// mid-session kill resumed in-process.
  bool durable;
};

// All three share the paper's roster: 9 owners, 3 GroupSV groups, 5
// miners, learning rate 0.05 and the sigma = 1 data-quality gradient.
constexpr Workload kWorkloads[] = {
    // Chain history grows every round; consensus dominates the wall.
    {"paper_r50", 50, 5620, 5, false},
    // Cross-silo shape: 8x the data, 40 local epochs, short history.
    {"silo_train", 10, 44960, 40, false},
    // Persistence, faults, slashing, a kill and an in-process resume.
    {"durable_faults", 20, 5620, 5, true},
};

constexpr uint32_t kOwners = 9;
constexpr size_t kMiners = 5;
constexpr uint32_t kGroups = 3;
constexpr uint64_t kRewardPool = 1'000'000;
constexpr double kNormBound = 5.0;

// Owner 1 crashes and is recovered; owner 3 forges the recovery shares it
// reveals and owner 4 poisons its update, so both are slashed; owner 6
// loses two submission attempts and lands on the retry; miner 2 is down
// for rounds 5-8; the coordinator is killed at the start of round 12.
constexpr const char* kDurablePlan =
    "crash owner 1 @3; bad-share owner 3 @3..4; "
    "poison-update owner 4 @6 *50; drop-submit owner 6 @8 x2; "
    "crash miner 2 @5; recover miner 2 @9; kill @12";
const std::map<uint32_t, uint64_t> kDurableRetired = {{1, 3}, {3, 3}, {4, 6}};
const std::map<uint32_t, uint64_t> kDurableSlashed = {{3, 3}, {4, 6}};

/// Set-ups timed after the sessions of every run; `setup_s` is their
/// median. Set-up cost depends on the generated data, so each uses its
/// own seed derived from the run's, and the median does not hang on one
/// input.
constexpr int kSetups = 24;
/// Rounds a run measures at least, so round_ms.p90 has ten samples
/// above it.
constexpr size_t kMinRounds = 100;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string state_root;
};

size_t PoolThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(hw, 4);
}

Result<BcflConfig> MakeConfig(const Workload& workload, uint64_t seed) {
  BcflConfig config;
  config.num_owners = kOwners;
  config.num_miners = kMiners;
  config.num_groups = kGroups;
  config.rounds = workload.rounds;
  config.seed = seed;
  config.sigma = 1.0;
  config.digits.num_instances = workload.instances;
  config.local.epochs = workload.epochs;
  config.local.learning_rate = 0.05;
  config.pool_threads = PoolThreads();
  if (workload.durable) {
    config.reward_pool = kRewardPool;
    config.update_norm_bound = kNormBound;
    BCFL_ASSIGN_OR_RETURN(config.fault_plan,
                          bcfl::fault::FaultPlan::Parse(kDurablePlan));
  }
  return config;
}

// --- Round boundaries, observed from outside ---------------------------

/// Notes when each FL round completes: a no-op MinerBehavior on every
/// miner watches the leader's post-execution state for the
/// `round_complete/<r>` marker of the round it waits on. A round's latency
/// is the time between successive markers (the first from Run()'s start).
class RoundClock {
 public:
  RoundClock() = default;
  RoundClock(const RoundClock&) = delete;
  RoundClock& operator=(const RoundClock&) = delete;

  Status Install(BcflCoordinator* coordinator) {
    for (size_t m = 0; m < coordinator->engine().num_miners(); ++m) {
      bcfl::chain::MinerBehavior behavior;
      behavior.tamper_state = [this](bcfl::chain::ContractState* state) {
        OnProposal(*state);
      };
      BCFL_RETURN_IF_ERROR(
          coordinator->InstallMinerBehavior(m, std::move(behavior)));
    }
    return Status::OK();
  }

  /// Call right before Run(); `first_round` is the round Run() starts at.
  void Start(uint64_t first_round) {
    next_round_ = first_round;
    last_ = Clock::now();
  }

  const std::vector<double>& round_ms() const { return round_ms_; }

 private:
  void OnProposal(const bcfl::chain::ContractState& state) {
    if (!state.Has(bcfl::core::keys::RoundComplete(next_round_))) return;
    const Clock::time_point now = Clock::now();
    round_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
    ++next_round_;
  }

  uint64_t next_round_ = 0;
  Clock::time_point last_ = Clock::now();
  std::vector<double> round_ms_;
};

// --- Output checks ------------------------------------------------------

/// SHA-256 fingerprint of the session's outputs, the recipe of bcfl_sim's
/// `session_summary`: SV totals and per-round vectors, final weights,
/// per-round accuracies, chain tip and the transaction counters.
std::string SessionDigest(BcflCoordinator& coordinator,
                          const BcflRunResult& result) {
  const bcfl::chain::Blockchain& chain = coordinator.engine().CanonicalChain();
  bcfl::ByteWriter bits;
  for (double v : result.total_sv) bits.WriteDouble(v);
  for (const auto& round_sv : result.per_round_sv) {
    for (double v : round_sv) bits.WriteDouble(v);
  }
  result.global_weights.Serialize(&bits);
  for (double acc : result.round_accuracies) bits.WriteDouble(acc);
  for (uint64_t reward : result.rewards) bits.WriteU64(reward);
  bits.WriteU64(chain.Height());
  bits.WriteU64(result.blocks_committed);
  bits.WriteU64(result.total_transactions);
  bits.WriteU64(result.recover_transactions);
  bits.WriteU64(result.submission_retries);
  bits.WriteU64(result.slash_transactions);
  return bcfl::crypto::DigestToHex(chain.Tip().header.Hash()) + ":" +
         bcfl::crypto::DigestToHex(bcfl::crypto::Sha256::Hash(bits.buffer()));
}

/// The transparency check: an independent replica built from the public
/// contracts re-executes every committed block to its header's state root,
/// and the re-derived per-round SV equals the session's bit for bit.
Status RederiveChain(BcflCoordinator& coordinator,
                     const BcflRunResult& result) {
  auto host = std::make_shared<bcfl::chain::ContractHost>();
  auto fl = std::make_shared<bcfl::core::FlContract>(coordinator.test_set());
  BCFL_RETURN_IF_ERROR(host->Register(fl));
  BCFL_RETURN_IF_ERROR(
      host->Register(std::make_shared<bcfl::core::RewardContract>()));
  BCFL_RETURN_IF_ERROR(
      host->Register(std::make_shared<bcfl::core::SlashContract>(fl)));
  bcfl::chain::Miner replica(
      static_cast<uint32_t>(coordinator.engine().num_miners()), host);
  const bcfl::chain::Blockchain& chain = coordinator.engine().CanonicalChain();
  for (uint64_t h = 1; h <= chain.Height(); ++h) {
    BCFL_ASSIGN_OR_RETURN(bcfl::chain::Block block, chain.GetBlock(h));
    BCFL_RETURN_IF_ERROR(replica.CommitBlock(block).WithContext(
        "re-executing height " + std::to_string(h)));
  }
  if (replica.chain().Tip().header.Hash() != chain.Tip().header.Hash()) {
    return Status::Corruption("re-derived chain tip differs");
  }
  for (size_t r = 0; r < result.per_round_sv.size(); ++r) {
    for (uint32_t i = 0; i < result.per_round_sv[r].size(); ++i) {
      BCFL_ASSIGN_OR_RETURN(
          double sv, bcfl::core::GetDouble(replica.state(),
                                           bcfl::core::keys::RoundSv(r, i)));
      if (std::memcmp(&sv, &result.per_round_sv[r][i], sizeof(sv)) != 0) {
        return Status::Corruption("re-derived SV of owner " +
                                  std::to_string(i) + " in round " +
                                  std::to_string(r) + " differs");
      }
    }
  }
  return Status::OK();
}

// --- Per-layer figures from the program's own spans --------------------

/// One traced session's layer figures.
struct LayerSample {
  // Per round, from the `round` span and its direct children.
  std::vector<double> round_ms, owner_ms, chain_ms, recover_ms, eval_ms,
      residual_ms;
  std::vector<double> propose_ms, validate_ms, round_eval_ms, checkpoint_ms,
      resume_ms, recover_phase_ms;
  double block_growth = 0.0;
  double mask_ms_mean = 0.0;
  double commit_ms_mean = 0.0;
  uint64_t sig_hits = 0;
  uint64_t sig_lookups = 0;
  double state_keys = 0.0;
  double state_mb = 0.0;
  double net_kb_per_block = 0.0;
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) { return Mean(v) * v.size(); }

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Network traffic and chain height at the start of a Run(), so traffic
/// per block counts only the blocks that Run() committed: a resumed
/// coordinator starts with fresh network counters but the whole chain.
struct NetMark {
  uint64_t bytes = 0;
  uint64_t height = 0;
};

NetMark MarkNet(BcflCoordinator& coordinator) {
  return {coordinator.engine().network().stats().bytes_sent,
          coordinator.engine().CanonicalChain().Height()};
}

LayerSample CollectLayers(BcflCoordinator& coordinator, NetMark run_start) {
  LayerSample sample;
  const std::vector<bcfl::obs::SpanRecord> spans =
      bcfl::obs::Tracer::Global().Snapshot();
  std::unordered_map<uint64_t, std::vector<const bcfl::obs::SpanRecord*>>
      children;
  std::vector<const bcfl::obs::SpanRecord*> rounds;
  for (const auto& span : spans) {
    children[span.parent_id].push_back(&span);
    if (span.name == "round" && span.category == "fl") {
      rounds.push_back(&span);
    }
    if (span.name == "block_build") sample.propose_ms.push_back(Ms(span.duration_ns));
    if (span.name == "proposal_reexec") {
      sample.validate_ms.push_back(Ms(span.duration_ns));
    }
    if (span.name == "round_eval") {
      sample.round_eval_ms.push_back(Ms(span.duration_ns));
    }
    if (span.name == "checkpoint") {
      sample.checkpoint_ms.push_back(Ms(span.duration_ns));
    }
    if (span.name == "resume_restore") {
      sample.resume_ms.push_back(Ms(span.duration_ns));
    }
    if (span.name == "recover_phase") {
      sample.recover_phase_ms.push_back(Ms(span.duration_ns));
    }
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const auto* a, const auto* b) { return a->start_ns < b->start_ns; });

  std::vector<double> block_ms;  // Consensus per block, in commit order.
  for (const auto* round : rounds) {
    const auto& kids = children[round->id];
    // A killed round ends at its start, before any phase ran.
    if (kids.empty()) continue;
    double owner = 0, chain = 0, recover = 0, eval = 0, covered = 0;
    std::vector<const bcfl::obs::SpanRecord*> blocks;
    for (const auto* kid : kids) {
      const double ms = Ms(kid->duration_ns);
      covered += ms;
      if (kid->name == "train") owner += ms;
      if (kid->name == "block_commit") {
        chain += ms;
        blocks.push_back(kid);
      }
      if (kid->name == "recover_phase" || kid->name == "norm_audit") {
        recover += ms;
      }
      if (kid->name == "eval") eval += ms;
    }
    std::sort(blocks.begin(), blocks.end(), [](const auto* a, const auto* b) {
      return a->start_ns < b->start_ns;
    });
    for (const auto* block : blocks) block_ms.push_back(Ms(block->duration_ns));
    const double wall = Ms(round->duration_ns);
    sample.round_ms.push_back(wall);
    sample.owner_ms.push_back(owner);
    sample.chain_ms.push_back(chain);
    sample.recover_ms.push_back(recover);
    sample.eval_ms.push_back(eval);
    sample.residual_ms.push_back(wall - covered);
  }
  if (!block_ms.empty()) {
    const size_t tenth = std::max<size_t>(1, block_ms.size() / 10);
    const std::vector<double> first(block_ms.begin(), block_ms.begin() + tenth);
    const std::vector<double> last(block_ms.end() - tenth, block_ms.end());
    sample.block_growth = Mean(last) / Mean(first);
  }

  auto& registry = bcfl::obs::MetricsRegistry::Global();
  sample.mask_ms_mean = registry.GetHistogram("secureagg.mask_us").Mean() / 1e3;
  sample.commit_ms_mean = registry.GetHistogram("chain.commit_us").Mean() / 1e3;
  sample.sig_hits = registry.GetCounter("chain.sigcache.hits").Value();
  sample.sig_lookups =
      sample.sig_hits + registry.GetCounter("chain.sigcache.misses").Value();

  const bcfl::chain::ContractState& state =
      coordinator.engine().CanonicalState();
  sample.state_keys = static_cast<double>(state.size());
  double bytes = 0.0;
  for (const std::string& key : state.KeysWithPrefix("")) {
    auto value = state.Get(key);
    bytes += static_cast<double>(key.size()) +
             (value.ok() ? static_cast<double>(value->size()) : 0.0);
  }
  sample.state_mb = bytes / (1024.0 * 1024.0);
  const NetMark end = MarkNet(coordinator);
  const uint64_t blocks = end.height - run_start.height;
  sample.net_kb_per_block =
      blocks == 0 ? 0.0
                  : static_cast<double>(end.bytes - run_start.bytes) / 1024.0 /
                        static_cast<double>(blocks);
  return sample;
}

/// Per-round reconciliation of one traced session: measured round wall,
/// the phases the program's spans attribute, and the residual no span
/// covers (submission bookkeeping, grouping, ledger probes).
void PrintReconciliation(const Workload& workload, const LayerSample& s) {
  std::fprintf(stderr,
               "\n[%s] per-round reconciliation (ms, program spans, one traced "
               "session)\n%5s %10s %10s %10s %10s %10s %10s\n",
               workload.name, "round", "wall", "owners", "chain", "recover",
               "eval", "residual");
  for (size_t r = 0; r < s.round_ms.size(); ++r) {
    std::fprintf(stderr, "%5zu %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n", r,
                 s.round_ms[r], s.owner_ms[r], s.chain_ms[r], s.recover_ms[r],
                 s.eval_ms[r], s.residual_ms[r]);
  }
  std::fprintf(stderr, "%5s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
               "total", Sum(s.round_ms), Sum(s.owner_ms), Sum(s.chain_ms),
               Sum(s.recover_ms), Sum(s.eval_ms), Sum(s.residual_ms));
}

// --- Sessions -----------------------------------------------------------

struct SessionOutcome {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;     ///< Create (+ fresh AttachPersistence).
  double run_s = 0.0;       ///< Sum of Run() walls.
  double recovery_s = 0.0;  ///< Create + AttachPersistence(resume).
  std::vector<double> round_ms;
  std::string digest;
  std::map<uint32_t, uint64_t> retired_at;
  std::map<uint32_t, uint64_t> slashed_at;
  bool traced = false;
  LayerSample layers;
};

Result<std::unique_ptr<BcflCoordinator>> CreateSession(
    const BcflConfig& config, const Workload& workload,
    const std::string& state_dir, bool resume) {
  BCFL_ASSIGN_OR_RETURN(std::unique_ptr<BcflCoordinator> coordinator,
                        BcflCoordinator::Create(config));
  if (workload.durable) {
    bcfl::core::PersistenceOptions persist;
    persist.state_dir = state_dir;
    persist.checkpoint_every = 1;
    persist.resume = resume;
    BCFL_RETURN_IF_ERROR(coordinator->AttachPersistence(persist));
  }
  return coordinator;
}

/// Times `kSetups` set-ups that are torn down without running.
Result<std::vector<double>> TimeSetups(const Options& options) {
  std::vector<double> out;
  for (int k = 0; k < kSetups; ++k) {
    BCFL_ASSIGN_OR_RETURN(
        BcflConfig config,
        MakeConfig(*options.workload,
                   options.seed ^ (0x9E3779B97F4A7C15ull * (k + 1))));
    const std::string dir = options.state_root + "/setup";
    std::filesystem::remove_all(dir);
    const Clock::time_point start = Clock::now();
    BCFL_ASSIGN_OR_RETURN(
        auto coordinator,
        CreateSession(config, *options.workload, dir, /*resume=*/false));
    out.push_back(SecondsSince(start));
    coordinator.reset();
    std::filesystem::remove_all(dir);
  }
  return out;
}

SessionOutcome RunSession(const Options& options, const BcflConfig& config,
                          bool disarm_kills, bool rederive, bool traced) {
  const Workload& workload = *options.workload;
  SessionOutcome out;
  out.traced = traced;
  bcfl::obs::Tracer::Global().set_enabled(traced);
  bcfl::obs::MetricsRegistry::set_enabled(traced);
  if (traced) {
    bcfl::obs::Tracer::Global().Reset();
    bcfl::obs::MetricsRegistry::Global().Reset();
  }
  const std::string dir = options.state_root + "/session";
  std::filesystem::remove_all(dir);
  auto fail = [&](const std::string& what, const Status& st) {
    out.error = what + ": " + st.ToString();
    std::filesystem::remove_all(dir);
    return out;
  };

  const Clock::time_point session_start = Clock::now();
  auto created = CreateSession(config, workload, dir, /*resume=*/false);
  if (!created.ok()) return fail("setup", created.status());
  std::unique_ptr<BcflCoordinator> coordinator = std::move(*created);
  out.setup_s = SecondsSince(session_start);
  if (disarm_kills && coordinator->fault_injector() != nullptr) {
    coordinator->fault_injector()->DisarmAllKills();
  }

  RoundClock round_clock;
  if (Status st = round_clock.Install(coordinator.get()); !st.ok()) {
    return fail("round clock", st);
  }
  round_clock.Start(coordinator->start_round());
  NetMark net_start = MarkNet(*coordinator);
  Clock::time_point run_start = Clock::now();
  Result<BcflRunResult> result = coordinator->Run();
  out.run_s += SecondsSince(run_start);

  if (!result.ok() && workload.durable && coordinator->was_killed()) {
    // The process "dies": drop it, then resume from the state dir.
    coordinator.reset();
    const Clock::time_point recovery_start = Clock::now();
    created = CreateSession(config, workload, dir, /*resume=*/true);
    if (!created.ok()) return fail("resume", created.status());
    coordinator = std::move(*created);
    out.recovery_s = SecondsSince(recovery_start);
    if (Status st = round_clock.Install(coordinator.get()); !st.ok()) {
      return fail("round clock", st);
    }
    round_clock.Start(coordinator->start_round());
    net_start = MarkNet(*coordinator);
    run_start = Clock::now();
    result = coordinator->Run();
    out.run_s += SecondsSince(run_start);
  }
  if (!result.ok()) return fail("run", result.status());

  // Tracing stays on until the layer figures are read, but nothing below
  // is timed.
  const BcflRunResult& run = *result;
  const bcfl::chain::ContractState& state =
      coordinator->engine().CanonicalState();
  for (uint64_t r = 0; r < config.rounds; ++r) {
    if (!state.Has(bcfl::core::keys::RoundComplete(r))) {
      return fail("check", Status::Internal("round " + std::to_string(r) +
                                            " incomplete on chain"));
    }
  }
  if (run.per_round_sv.size() != config.rounds ||
      run.round_accuracies.size() != config.rounds ||
      round_clock.round_ms().size() != config.rounds) {
    return fail("check", Status::Internal("session reported " +
                                          std::to_string(run.per_round_sv.size()) +
                                          " rounds, observed " +
                                          std::to_string(round_clock.round_ms().size())));
  }
  out.round_ms = round_clock.round_ms();
  out.digest = SessionDigest(*coordinator, run);
  out.retired_at = run.retired_at;
  out.slashed_at = run.slashed_at;
  if (rederive) {
    if (Status st = RederiveChain(*coordinator, run); !st.ok()) {
      return fail("chain re-derivation", st);
    }
  }
  if (traced) {
    out.layers = CollectLayers(*coordinator, net_start);
    // The round's phases run one after another, so their spans cannot
    // cover more than the round; a negative residual means the
    // attribution double-counts.
    for (size_t r = 0; r < out.layers.residual_ms.size(); ++r) {
      if (out.layers.residual_ms[r] < 0.0) {
        return fail("reconciliation",
                    Status::Internal("phase spans exceed round " +
                                     std::to_string(r) + "'s wall time"));
      }
    }
  }
  bcfl::obs::Tracer::Global().set_enabled(false);
  bcfl::obs::MetricsRegistry::set_enabled(false);
  coordinator.reset();
  std::filesystem::remove_all(dir);
  out.ok = true;
  return out;
}

// --- Environment + output ----------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    std::string clean;
    for (char c : model) {
      if (c != '"' && c != '\\') clean += c;
    }
    return clean;
  }
#endif
  return "unknown";
}

void PrintEnvironment(const Options& options) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t pool = PoolThreads();
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"hardware_threads\": %u, \"pool_threads\": %zu, \"cpu_model\": "
      "\"%s\", \"build_type\": \"%s\", \"trace\": %d, "
      "\"parallel_speedup_evidence\": %s}}\n",
      options.workload->name, static_cast<unsigned long long>(options.seed),
      nproc, std::thread::hardware_concurrency(), pool, CpuModel().c_str(),
      SESSIONBENCH_BUILD_TYPE, options.trace ? 1 : 0,
      pool > 1 ? "true" : "false");
  if (pool == 1) {
    std::printf("note: one pool thread; these figures are not evidence of "
                "parallel speedup\n");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options->workload = &w;
      }
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
      have_seconds = options->seconds > 0.0;
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--state-root") {
      options->state_root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->workload != nullptr && have_seconds &&
         !options->state_root.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_r50|silo_train|durable_faults "
                 "--seed N --seconds S --trace 0|1 --state-root DIR\n",
                 argv[0]);
    return 2;
  }
  const Workload& workload = *options.workload;
  bcfl::obs::Tracer::Global().set_enabled(false);
  bcfl::obs::MetricsRegistry::set_enabled(false);
  std::filesystem::create_directories(options.state_root);
  PrintEnvironment(options);

  auto config = MakeConfig(workload, options.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }

  bool correct = true;
  // The uninterrupted reference of the durable workload: same seed and
  // plan with the kill disarmed; the killed+resumed sessions must match it.
  std::string reference_digest;
  if (workload.durable) {
    SessionOutcome reference = RunSession(options, *config,
                                          /*disarm_kills=*/true,
                                          /*rederive=*/false, /*traced=*/false);
    if (!reference.ok) {
      std::fprintf(stderr, "reference session: %s\n", reference.error.c_str());
      return 1;
    }
    reference_digest = reference.digest;
  }

  std::vector<SessionOutcome> sessions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rounds_measured = 0;
  size_t traced_sessions = 0;
  size_t untraced_sessions = 0;
  const Clock::time_point window = Clock::now();
  while (SecondsSince(window) < options.seconds ||
         (!options.trace && rounds_measured < kMinRounds) ||
         (options.trace && (traced_sessions == 0 || untraced_sessions == 0))) {
    const bool traced = options.trace && sessions.size() % 2 == 0;
    SessionOutcome s = RunSession(options, *config, /*disarm_kills=*/false,
                                  /*rederive=*/sessions.empty(), traced);
    attempted += workload.rounds;
    if (!s.ok) {
      std::fprintf(stderr, "session %zu failed: %s\n", sessions.size(),
                   s.error.c_str());
      failed += workload.rounds;
      correct = false;
      break;
    }
    const std::string& expected =
        workload.durable ? reference_digest : sessions.empty() ? s.digest
                                                               : sessions[0].digest;
    bool good = s.digest == expected;
    if (workload.durable) {
      good = good && s.retired_at == kDurableRetired &&
             s.slashed_at == kDurableSlashed;
    }
    if (!good) {
      std::fprintf(stderr, "session %zu: outputs differ (digest %s, want %s)\n",
                   sessions.size(), s.digest.c_str(), expected.c_str());
      failed += workload.rounds;
      correct = false;
    }
    std::fprintf(stderr, "[%s] session %zu%s: Run() %.3f s, round p50 %.3f ms\n",
                 workload.name, sessions.size(), traced ? " (traced)" : "",
                 s.run_s, Quantile(s.round_ms, 0.5));
    (traced ? traced_sessions : untraced_sessions)++;
    rounds_measured += s.round_ms.size();
    sessions.push_back(std::move(s));
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Peak memory is the sessions'; the set-ups come after it, because
    // building and dropping 24 coordinators only fragments the heap.
    const double peak_rss_mb = PeakRssMb();
    auto setup_s = TimeSetups(options);
    if (!setup_s.ok()) {
      std::fprintf(stderr, "setup: %s\n", setup_s.status().ToString().c_str());
      return 1;
    }
    // Throughput is each session's rounds over its Run() wall time, the
    // median across sessions, so one slow session does not move it.
    std::vector<double> round_ms, rounds_per_s;
    size_t rounds = 0;
    for (const auto& s : sessions) {
      Append(&round_ms, s.round_ms);
      rounds_per_s.push_back(static_cast<double>(s.round_ms.size()) / s.run_s);
      rounds += s.round_ms.size();
    }
    metrics = {
        {"setup_s", Quantile(*setup_s, 0.5), "s"},
        {"rounds_per_s", Quantile(rounds_per_s, 0.5), "1/s"},
        {"round_ms.p50", Quantile(round_ms, 0.5), "ms"},
        {"round_ms.p90", Quantile(round_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::fprintf(stderr, "[%s] %zu sessions, %zu rounds, %zu set-ups\n",
                 workload.name, sessions.size(), rounds, setup_s->size());
  } else {
    LayerSample pooled;
    std::vector<double> growth, create_ms, recovery_ms, traced_run_s,
        untraced_run_s;
    double mask = 0, commit = 0;
    uint64_t hits = 0, lookups = 0;
    size_t n = 0;
    const LayerSample* first = nullptr;
    for (const auto& s : sessions) {
      if (!s.traced) {
        untraced_run_s.push_back(s.run_s);
        continue;
      }
      const LayerSample& l = s.layers;
      if (first == nullptr) first = &l;
      traced_run_s.push_back(s.run_s);
      create_ms.push_back(s.setup_s * 1e3);
      if (workload.durable) recovery_ms.push_back(s.recovery_s * 1e3);
      growth.push_back(l.block_growth);
      Append(&pooled.round_ms, l.round_ms);
      Append(&pooled.owner_ms, l.owner_ms);
      Append(&pooled.chain_ms, l.chain_ms);
      Append(&pooled.residual_ms, l.residual_ms);
      Append(&pooled.propose_ms, l.propose_ms);
      Append(&pooled.validate_ms, l.validate_ms);
      Append(&pooled.round_eval_ms, l.round_eval_ms);
      Append(&pooled.checkpoint_ms, l.checkpoint_ms);
      Append(&pooled.resume_ms, l.resume_ms);
      Append(&pooled.recover_phase_ms, l.recover_phase_ms);
      mask += l.mask_ms_mean;
      commit += l.commit_ms_mean;
      hits += l.sig_hits;
      lookups += l.sig_lookups;
      pooled.state_keys = l.state_keys;
      pooled.state_mb = l.state_mb;
      pooled.net_kb_per_block = l.net_kb_per_block;
      ++n;
    }
    if (first != nullptr) PrintReconciliation(workload, *first);
    const double round_total = Sum(pooled.round_ms);
    auto share = [&](const std::vector<double>& part) {
      return round_total > 0 ? Sum(part) / round_total : 0.0;
    };
    const double untraced = Quantile(untraced_run_s, 0.5);
    metrics = {
        {"core.create_ms", Quantile(create_ms, 0.5), "ms"},
        {"core.recovery_ms", Quantile(recovery_ms, 0.5), "ms"},
        {"core.resume_ms", Quantile(pooled.resume_ms, 0.5), "ms"},
        {"fl.owner_phase_ms.p50", Quantile(pooled.owner_ms, 0.5), "ms"},
        {"fl.share", share(pooled.owner_ms), "ratio"},
        {"secureagg.mask_ms.mean", n > 0 ? mask / n : 0.0, "ms"},
        {"secureagg.recover_ms.p50", Quantile(pooled.recover_phase_ms, 0.5),
         "ms"},
        {"chain.share", share(pooled.chain_ms), "ratio"},
        {"chain.propose_ms.p50", Quantile(pooled.propose_ms, 0.5), "ms"},
        {"chain.validate_ms.p50", Quantile(pooled.validate_ms, 0.5), "ms"},
        {"chain.commit_ms.mean", n > 0 ? commit / n : 0.0, "ms"},
        {"chain.block_ms.growth", Quantile(growth, 0.5), "ratio"},
        {"chain.sigcache.hit_ratio",
         lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio"},
        {"chain.state_keys", pooled.state_keys, "count"},
        {"chain.state_mb", pooled.state_mb, "MB"},
        {"contract.round_eval_ms.p50", Quantile(pooled.round_eval_ms, 0.5),
         "ms"},
        {"net.kb_per_block", pooled.net_kb_per_block, "KiB"},
        {"checkpoint.write_ms.p50", Quantile(pooled.checkpoint_ms, 0.5), "ms"},
        {"round.residual_share", share(pooled.residual_ms), "ratio"},
        {"trace.overhead_share",
         untraced > 0 ? Quantile(traced_run_s, 0.5) / untraced - 1.0 : 0.0,
         "ratio"},
    };
  }
  std::filesystem::remove_all(options.state_root);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
