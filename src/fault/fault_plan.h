#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace bcfl::fault {

/// Which simulated process a fault event targets. Owners are FL data
/// owners (they submit masked updates); miners are consensus nodes on the
/// simulated P2P network.
enum class NodeKind : uint8_t { kOwner, kMiner };

/// The fault vocabulary of the chaos DSL. The first seven kinds are
/// crash/omission faults (PR 4); the last four are *byzantine* kinds
/// (PR 9) — the owner actively lies rather than merely going silent, and
/// the protocol answers with detection + on-chain slashing instead of
/// recovery alone.
enum class FaultKind : uint8_t {
  kCrash,       ///< Node goes offline at `round` (until a later recover).
  kRecover,     ///< Node comes back online at `round`.
  kSlow,        ///< Extra `delay_us` on the node's traffic in [round, end_round].
  kDropSubmit,  ///< Owner's first `count` submission attempts at `round` are lost.
  kDuplicate,   ///< Miner's outbound messages duplicated in [round, end_round].
  kReorder,     ///< Miner's outbound messages jittered in [round, end_round].
  kPartition,   ///< `members` (miners) isolated from the rest in [round, end_round].
  kBadShare,         ///< Owner forges the Shamir shares it reveals in [round, end_round].
  kInconsistentMask, ///< Owner's masked submission is not its masked update.
  kEquivocateSubmit, ///< Owner signs two conflicting submissions at `round`.
  kPoisonUpdate,     ///< Owner scales its local update by `magnitude`.
  /// Coordinator process killed at the start of `round` (PR 10) — the
  /// restart drill: the run must come back via `--resume` and finish
  /// bit-identical. Targets the whole process, so it has no node.
  kKill,
};

/// One scheduled fault, keyed to the FL round counter; durations express
/// simulated time through `delay_us`.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  NodeKind node_kind = NodeKind::kOwner;
  uint32_t node = 0;              ///< Target id (unused for partitions).
  uint64_t round = 0;             ///< Activation round.
  uint64_t end_round = 0;         ///< Inclusive last round of interval faults.
  uint32_t count = 1;             ///< Dropped submission attempts.
  uint64_t delay_us = 0;          ///< Extra latency for slow/reorder faults.
  double magnitude = 0.0;         ///< Poison scale factor (required, > 1).
  std::vector<uint32_t> members;  ///< Partition cell (miner ids).

  /// One line of the DSL, e.g. "crash owner 2 @1",
  /// "slow miner 0 @1..3 +20000us" or "poison-update owner 1 @2 *50".
  std::string ToString() const;
};

/// Knobs of the seedable random plan generator. The generator only emits
/// plans that `Validate` accepts, so every seed of a CI sweep converges
/// by construction: at most `num_owners - threshold` owners ever crash
/// (threshold share-holders always survive) and the offline-miner set
/// (crashes plus minority partition cells) never reaches half the roster.
struct FaultPlanOptions {
  uint32_t num_owners = 9;
  uint32_t num_miners = 5;
  uint32_t rounds = 10;
  /// Shamir recovery threshold; 0 = a strict majority
  /// (`crypto::ResolveThreshold`).
  size_t shamir_threshold = 0;
  /// Byzantine envelope (PR 9). The rate defaults to 0 and the byzantine
  /// draws happen strictly *after* every crash/noise draw, so plans from
  /// pre-existing seeds replay bit-identically. Byzantine owners are
  /// slashed and permanently retired like crashed ones, so they spend the
  /// same owner budget: |crashed ∪ byzantine| <= num_owners - threshold.
  double byzantine_rate = 0.0;  ///< Per-budget-slot misbehavior probability.
};

/// A deterministic schedule of faults for one protocol run.
///
/// Plans come from three places: the builder API (tests), the text DSL
/// (`Parse`, the `--fault-plan` flag of bcfl_sim) and the seedable
/// generator (`Random`, the chaos sweeps). `FaultInjector` (injector.h)
/// turns a plan into per-round decisions consumed by the network, the
/// consensus engine and the coordinator.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Semicolon/newline-separated DSL document; round-trips via Parse.
  std::string ToString() const;

  /// Parses the DSL. Grammar, one event per line (or ';'-separated,
  /// '#' comments):
  ///   crash (owner|miner) <id> @<round>
  ///   recover (owner|miner) <id> @<round>
  ///   slow (owner|miner) <id> @<r>[..<r2>] +<delay>us
  ///   drop-submit owner <id> @<round> [x<count>]
  ///   duplicate miner <id> @<r>[..<r2>]
  ///   reorder miner <id> @<r>[..<r2>]
  ///   partition miners <id>,<id>,... @<r>[..<r2>]
  ///   bad-share owner <id> @<r>[..<r2>]
  ///   inconsistent-mask owner <id> @<round>
  ///   equivocate-submit owner <id> @<round>
  ///   poison-update owner <id> @<round> *<magnitude>
  ///   kill @<round>
  static Result<FaultPlan> Parse(const std::string& spec);

  /// Deterministic random plan within the safety envelope of `options`.
  static FaultPlan Random(uint64_t seed, const FaultPlanOptions& options);

  /// Rejects plans that could make the protocol unrecoverable: more than
  /// `num_owners - threshold` distinct owners crashing *or misbehaving*
  /// (byzantine owners get slashed and retired, so they spend the same
  /// budget), any round where the online miners reachable from each other
  /// fall to half the roster or below, out-of-range ids, inverted
  /// intervals, byzantine events aimed at miners, or a poison-update
  /// without a magnitude > 1.
  Status Validate(uint32_t num_owners, uint32_t num_miners,
                  size_t shamir_threshold) const;
};

/// The plan's events ordered by activation round (stable for ties, so
/// same-round events keep their listing order). Crash/recover replay is
/// "latest event at or before the round wins" — that only holds when the
/// replay walks events chronologically, and plans from Parse or the
/// builder API may list them in any order.
std::vector<const FaultEvent*> EventsByRound(
    const std::vector<FaultEvent>& events);

}  // namespace bcfl::fault
