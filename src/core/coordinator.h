#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/block_log.h"
#include "chain/consensus.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/fl_contract.h"
#include "core/params.h"
#include "core/round_engine.h"
#include "data/digits.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fl/client.h"
#include "ml/dataset.h"
#include "obs/round_ledger.h"
#include "secureagg/participant.h"

namespace bcfl::core {

/// Submission policy on the simulated clock: an owner whose update has not
/// landed by the round's deadline is dropped and recovered; lost attempts
/// are retried with doubling backoff, at most kMaxSubmitAttempts times.
inline constexpr uint64_t kSubmitDeadlineUs = 2'000'000;
inline constexpr uint64_t kSubmitBackoffUs = 10'000;
inline constexpr uint32_t kMaxSubmitAttempts = 5;

/// End-to-end configuration of a BCFL session.
struct BcflConfig {
  uint32_t num_owners = 9;
  size_t num_miners = 5;
  uint32_t rounds = 10;
  uint32_t num_groups = 3;
  uint64_t seed = 42;    ///< Master seed: data, keys, partitions.
  uint64_t seed_e = 7;   ///< Contribution-evaluation permutation seed.
  uint32_t fixed_point_bits = 24;
  /// Data-quality gradient: owner i gets N(0, sigma*i) feature noise.
  double sigma = 0.0;
  ml::LogisticRegressionConfig local;
  data::DigitsConfig digits;
  chain::ConsensusConfig consensus;
  /// When non-zero, owner 0 funds this reward pool at setup and the
  /// coordinator triggers on-chain distribution + claims after the
  /// final round (see RewardContract).
  uint64_t reward_pool = 0;
  /// Chaos schedule injected into the network, the consensus engine and
  /// the round driver. Empty = fault-free run (the default). Plans must
  /// pass `FaultPlan::Validate` for this roster and threshold.
  fault::FaultPlan fault_plan;
  /// Shamir threshold for the owners' recovery shares; 0 = a strict
  /// majority (`crypto::ResolveThreshold`).
  size_t secure_agg_threshold = 0;
  /// L2 norm bound on decoded group aggregates, agreed at setup (PR 9).
  /// When positive, the contract's norm gate holds a round open whenever
  /// a group's decoded model exceeds the bound, and the coordinator's
  /// audit slashes the violating owner. 0 disables the gate.
  double update_norm_bound = 0.0;
  /// Worker threads of the session's pool. The round engine fans each
  /// round's train/mask/payload work across it and replays submissions
  /// in canonical owner order; the consensus engine runs each proposal's
  /// validations on it and sends the votes in delivery order. Both are
  /// bit-identical for any pool size. 0 = one per hardware thread.
  size_t pool_threads = 0;
};

/// Durable-session persistence (PR 10): where the append-only block log,
/// the crash-consistent session checkpoint and the kill journal live, how
/// often checkpoints are taken, and whether this process resumes a killed
/// session instead of starting a fresh one.
struct PersistenceOptions {
  /// Directory holding blocks.log, checkpoint.bckp and kill_journal.
  /// Created if absent.
  std::string state_dir;
  /// A checkpoint is written after every K-th completed round (plus one
  /// at attach time, so a kill at round 0 is already resumable). 0 is
  /// normalised to 1.
  uint64_t checkpoint_every = 1;
  /// Restore the session from `state_dir`. Without this flag a state dir
  /// that already holds committed blocks is refused, never overwritten.
  bool resume = false;
};

/// Everything a full on-chain session produces.
struct BcflRunResult {
  ml::Matrix global_weights;                     ///< Final W_G.
  std::vector<double> total_sv;                  ///< On-chain sv_total per owner.
  std::vector<std::vector<double>> per_round_sv; ///< [round][owner].
  std::vector<double> round_accuracies;          ///< Global model test accuracy.
  size_t blocks_committed = 0;
  size_t total_transactions = 0;
  /// On-chain reward claimed by each owner (empty when no pool was
  /// configured).
  std::vector<uint64_t> rewards;
  /// Owners retired by on-chain recoveries: owner id -> round in which
  /// the dropout was recovered. Their total SV is frozen from that round
  /// on (every later round scores them 0).
  std::map<uint32_t, uint64_t> retired_at;
  /// Committed recover transactions across the run.
  size_t recover_transactions = 0;
  /// Submission attempts that were retried after a loss.
  size_t submission_retries = 0;
  /// Owners convicted by an on-chain slash: owner id -> conviction round.
  /// Slashed owners also appear in `retired_at` (a conviction retires).
  std::map<uint32_t, uint64_t> slashed_at;
  /// Committed slash transactions across the run.
  size_t slash_transactions = 0;
  /// Reward units burned at distribution because their owner was slashed
  /// (0 when no pool was configured or nobody was slashed).
  uint64_t reward_burned = 0;
};

/// Drives the full protocol of Sect. IV-B on the simulated blockchain:
/// off-chain setup (key generation, parameter agreement, setup tx),
/// R training rounds (local training -> masked submissions as signed
/// transactions -> consensus -> on-chain aggregation + GroupSV), and
/// final contribution totals read back from the canonical state.
class BcflCoordinator {
 public:
  /// Builds the session: synthesizes the digits dataset, splits 8:2,
  /// partitions the training set over the owners, applies the quality
  /// gradient, generates all key material and commits the setup
  /// transaction through consensus.
  static Result<std::unique_ptr<BcflCoordinator>> Create(BcflConfig config);

  /// Runs all `config.rounds` FL rounds through the chain.
  Result<BcflRunResult> Run();

  const BcflConfig& config() const { return config_; }
  const ml::Dataset& test_set() const { return test_set_; }
  /// The owners' private partitions (for off-chain baselines in
  /// experiments; the chain itself never sees them).
  std::vector<ml::Dataset> OwnerDatasets() const;
  chain::ConsensusEngine& engine() { return *engine_; }

  /// Installs a Byzantine behaviour on miner `miner_idx` (e.g. an
  /// SV-inflating leader for the adversarial experiments).
  Status InstallMinerBehavior(size_t miner_idx, chain::MinerBehavior behavior);

  /// The chaos injector driving this run (nullptr for fault-free runs).
  fault::FaultInjector* fault_injector() { return injector_.get(); }
  /// Worker threads of the session's pool.
  size_t pool_threads_in_use() const { return pool_->num_threads(); }

  /// Attaches an opened protocol ledger: Run() then appends one
  /// structured record per FL round (what every latency histogram gained
  /// during the round, keyed by histogram name; sig-cache hit rate, fault
  /// events, dropouts/recoveries, the round's SV vector with rolling
  /// volatility). The phases are deltas of the global registry, so they
  /// hold only while one ledgered coordinator runs at a time in the
  /// process. Non-owning; the ledger must outlive Run(). nullptr (the
  /// default) disables ledger emission.
  void set_round_ledger(obs::RoundLedger* ledger) { ledger_ = ledger; }

  // --- Durability & restart (PR 10). -----------------------------------

  /// Attaches durable persistence after Create(). Fresh mode seeds the
  /// state dir: the setup block goes into the append-only log, an initial
  /// checkpoint (next_round = 0) is written, and from then on every block
  /// the engine commits is fsynced to the log *before* the commit is
  /// acknowledged. Resume mode restores a killed session instead: the
  /// checkpoint is loaded fail-closed, its fingerprint checked against
  /// this configuration, the logged blocks past the checkpoint truncated,
  /// heights 2..tip replayed into the freshly re-created engine, and the
  /// session RNG / network / roster / counters restored — Run() then
  /// continues from `start_round()` bit-identically to a run that was
  /// never killed.
  Status AttachPersistence(const PersistenceOptions& options);

  /// First FL round Run() will execute (non-zero only after a resume).
  uint64_t start_round() const { return start_round_; }
  /// Full-precision per-round SV vectors restored from the checkpoint
  /// (one entry per completed round; empty unless resumed). Feed this to
  /// RoundLedger::OpenForResume so the rolling-volatility window holds
  /// the exact doubles, not the ledger's %.6f-rounded values.
  const std::vector<std::vector<double>>& restored_sv_history() const {
    return seeded_result_.per_round_sv;
  }
  /// True when Run() stopped because an armed `kill` fault fired (only
  /// observable in-process when the kill handler declines to exit).
  bool was_killed() const { return was_killed_; }
  uint64_t killed_round() const { return killed_round_; }
  /// Invoked when an armed `kill` fault fires, after the kill has been
  /// journaled to the state dir. bcfl_sim installs std::_Exit here to
  /// model a hard process death; if the handler returns (or none is set),
  /// Run() surfaces FailedPrecondition instead.
  void set_kill_handler(std::function<void(uint64_t)> handler) {
    kill_handler_ = std::move(handler);
  }

  /// Hash of every determinism-relevant config knob (seeds, roster,
  /// rounds, deadlines, fault plan, ...). A checkpoint records it and
  /// resume refuses a checkpoint taken under a different configuration.
  uint64_t ConfigFingerprint() const;

 private:
  BcflCoordinator() = default;

  /// Replay half of the round: signs and submits one owner's masked
  /// payload, prebuilt by the round engine, with deadline/retry semantics
  /// — lost attempts back off exponentially on the simulated clock until
  /// the round deadline. Signing consumes the session RNG, so it stays on
  /// the coordinator thread, in canonical owner order. Returns false when
  /// the owner missed the deadline (a dropout).
  Result<bool> SubmitPreparedWithRetries(uint32_t owner, uint64_t round,
                                         const Bytes& payload,
                                         uint64_t deadline_us,
                                         BcflRunResult* result);

  /// Drives the on-chain `recover` transaction for every owner in
  /// `missing`: reveals its DH private key from the online survivors'
  /// shares with `ShamirSecretSharing::RevealVerified` (fails closed
  /// below the threshold) and submits the recovery. Successfully
  /// recovered owners are retired. A share that fails its Feldman check
  /// is skipped (the next holder serves) and its sender is slashed with
  /// the forged share + its reveal signature as on-chain evidence.
  Status RecoverMissingOwners(uint64_t round,
                              const std::set<uint32_t>& missing,
                              BcflRunResult* result);

  /// Lowest online, un-retired owner outside `excluded` — the party that
  /// signs accusation and recovery transactions (any registered owner
  /// may; the evidence or the revealed key, not the sender, carries it).
  Result<uint32_t> FindReporter(const std::set<uint32_t>& excluded) const;

  /// Signs and submits one slash transaction, retires the offender
  /// locally and records the conviction in `result`.
  Status SubmitSlash(uint64_t round, uint32_t offender, uint32_t reporter,
                     const Bytes& payload, const char* what,
                     BcflRunResult* result);

  /// Equivocation handling at submission time: signs the two conflicting
  /// submit_update transactions the owner produced (the second a
  /// tampered twin of `payload`), submits *neither* as an update and
  /// accuses with both as evidence instead — so the offender never lands
  /// an update and the round degrades exactly as if it had crashed.
  Status SlashEquivocator(uint32_t owner, uint64_t round,
                          const Bytes& payload, BcflRunResult* result);

  /// Norm-gate audit: scans the round's `flagged/` markers, unmasks each
  /// flagged group's submitters off-chain (modelling the per-member
  /// mask-opening audit; the simulation reveals via the driver) and
  /// submits a norm-violation slash for every member over the bound.
  Status AuditFlaggedGroups(uint64_t round, BcflRunResult* result);

  /// Fresh-persistence half of AttachPersistence: refuses a used state
  /// dir, logs the setup block, writes the round-0 checkpoint.
  Status InitFreshState();
  /// Resume half: checkpoint load + log replay + dynamic-state restore.
  Status RestoreFromState();
  /// Captures the session at the boundary before `next_round` and writes
  /// it atomically to the checkpoint file.
  Status WriteCheckpoint(uint64_t next_round, const BcflRunResult& result,
                         const ml::Matrix& global);
  /// Durably records that the kill at `round` fired, so a resumed process
  /// disarms it instead of refiring forever.
  Status JournalKill(uint64_t round);
  Status DisarmJournaledKills();

  BcflConfig config_;
  ml::Dataset test_set_;
  std::vector<fl::FlClient> clients_;
  std::vector<std::unique_ptr<secureagg::SecureAggParticipant>> participants_;
  std::vector<crypto::SchnorrKeyPair> schnorr_keys_;
  crypto::Schnorr schnorr_;
  /// The session's pool, shared by the contract host's FlContract, the
  /// consensus engine and the round engine; declared before all three so
  /// it outlives them.
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<chain::ContractHost> host_;
  std::unique_ptr<chain::ConsensusEngine> engine_;
  std::unique_ptr<Xoshiro256> rng_;
  SetupParams params_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// dh_shares_[owner][holder]: the Shamir share of `owner`'s DH private
  /// key held by `holder`, distributed at setup.
  std::vector<std::vector<crypto::ShamirShare>> dh_shares_;
  /// Feldman commitment to each owner's DH-key sharing polynomial,
  /// published in the setup params (PR 9). Recovery verifies every
  /// revealed share against these before combining it.
  std::vector<crypto::VssCommitment> dh_commitments_;
  size_t threshold_ = 0;
  /// Owners retired by a committed recovery, with the retirement round.
  std::map<uint32_t, uint64_t> retired_;
  obs::RoundLedger* ledger_ = nullptr;
  /// Round-engine state: the engine fanning owner work across the pool
  /// and the reusable per-round scratch arena.
  std::unique_ptr<RoundEngine> round_engine_;
  RoundScratch round_scratch_;
  /// Durability & restart state (PR 10).
  PersistenceOptions persist_;
  bool persistence_attached_ = false;
  std::unique_ptr<chain::BlockLog> block_log_;
  std::string checkpoint_path_;
  std::string kill_journal_path_;
  std::function<void(uint64_t)> kill_handler_;
  bool was_killed_ = false;
  uint64_t killed_round_ = 0;
  uint64_t start_round_ = 0;
  bool resumed_ = false;
  /// Accumulators restored from the checkpoint, consumed by Run().
  BcflRunResult seeded_result_;
  ml::Matrix seeded_global_;
};

}  // namespace bcfl::core
