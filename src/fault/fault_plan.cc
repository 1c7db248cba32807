#include "fault/fault_plan.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "crypto/shamir.h"

namespace bcfl::fault {

namespace {

// The random plan generator's envelope (see `Random`).
constexpr double kOwnerCrashRate = 0.6;  // Share of the crash budget spent.
constexpr double kMinerCrashRate = 0.6;
constexpr double kPartitionRate = 0.35;  // One partition window.
constexpr double kSlowRate = 0.3;        // Per node.
constexpr double kDropSubmitRate = 0.25; // Per owner.
constexpr double kDuplicateRate = 0.25;  // Per miner.
constexpr double kReorderRate = 0.25;    // Per miner.
constexpr uint64_t kMaxExtraDelayUs = 20'000;
constexpr double kPoisonMagnitude = 50.0;

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kDropSubmit: return "drop-submit";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kBadShare: return "bad-share";
    case FaultKind::kInconsistentMask: return "inconsistent-mask";
    case FaultKind::kEquivocateSubmit: return "equivocate-submit";
    case FaultKind::kPoisonUpdate: return "poison-update";
    case FaultKind::kKill: return "kill";
  }
  return "?";
}

bool IsByzantine(FaultKind kind) {
  return kind == FaultKind::kBadShare || kind == FaultKind::kInconsistentMask ||
         kind == FaultKind::kEquivocateSubmit ||
         kind == FaultKind::kPoisonUpdate;
}

/// Shortest decimal that round-trips through ParseMagnitude, e.g. "50",
/// "1.5" — std::to_string's fixed six decimals would not re-parse cleanly.
std::string MagnitudeString(double magnitude) {
  std::ostringstream out;
  out << magnitude;
  return out.str();
}

Result<double> ParseMagnitude(const std::string& token) {
  bool dot = false;
  bool digit = false;
  for (char c : token) {
    if (c == '.') {
      if (dot) return Status::InvalidArgument("bad magnitude: '" + token + "'");
      dot = true;
    } else if (c >= '0' && c <= '9') {
      digit = true;
    } else {
      return Status::InvalidArgument("bad magnitude: '" + token + "'");
    }
  }
  if (!digit) {
    return Status::InvalidArgument("bad magnitude: '" + token + "'");
  }
  return std::stod(token);
}

std::string RangeString(uint64_t round, uint64_t end_round) {
  // Appended piecewise: GCC 12 flags `"@" + std::to_string(...)` with a
  // false -Wrestrict.
  std::string out = "@";
  out += std::to_string(round);
  if (end_round > round) {
    out += "..";
    out += std::to_string(end_round);
  }
  return out;
}

Result<uint64_t> ParseNumber(const std::string& token, const char* what) {
  if (token.empty() ||
      !std::all_of(token.begin(), token.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                   token + "'");
  }
  try {
    return static_cast<uint64_t>(std::stoull(token));
  } catch (const std::out_of_range&) {
    return Status::InvalidArgument(std::string("out-of-range ") + what +
                                   ": '" + token + "'");
  }
}

}  // namespace

std::vector<const FaultEvent*> EventsByRound(
    const std::vector<FaultEvent>& events) {
  std::vector<const FaultEvent*> ordered;
  ordered.reserve(events.size());
  for (const FaultEvent& e : events) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->round < b->round;
                   });
  return ordered;
}

std::string FaultEvent::ToString() const {
  if (kind == FaultKind::kKill) {
    // Kills target the coordinator process itself, so there is no node.
    return "kill " + RangeString(round, end_round);
  }
  std::string out = KindName(kind);
  out += ' ';
  if (kind == FaultKind::kPartition) {
    out += "miners ";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(members[i]);
    }
  } else {
    out += node_kind == NodeKind::kOwner ? "owner " : "miner ";
    out += std::to_string(node);
  }
  out += ' ' + RangeString(round, end_round);
  if (kind == FaultKind::kDropSubmit && count != 1) {
    out += " x" + std::to_string(count);
  }
  if (kind == FaultKind::kSlow) {
    out += " +" + std::to_string(delay_us) + "us";
  }
  if (kind == FaultKind::kPoisonUpdate) {
    out += " *" + MagnitudeString(magnitude);
  }
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const auto& event : events) {
    if (!out.empty()) out += '\n';
    out += event.ToString();
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ';', '\n');
  std::istringstream lines(normalized);
  std::string line;
  while (std::getline(lines, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::vector<std::string> parts;
    std::string token;
    while (tokens >> token) parts.push_back(token);
    if (parts.empty()) continue;
    if (parts[0] == "kill") {
      // `kill @<round>` — no target node; the coordinator process dies.
      if (parts.size() != 2 || parts[1].empty() || parts[1][0] != '@') {
        return Status::InvalidArgument("kill wants 'kill @<round>': '" + line +
                                       "'");
      }
      FaultEvent event;
      event.kind = FaultKind::kKill;
      BCFL_ASSIGN_OR_RETURN(event.round,
                            ParseNumber(parts[1].substr(1), "round"));
      event.end_round = event.round;
      plan.events.push_back(std::move(event));
      continue;
    }
    if (parts.size() < 3) {
      return Status::InvalidArgument("incomplete fault event: '" + line + "'");
    }

    FaultEvent event;
    const std::string& kind = parts[0];
    if (kind == "crash") event.kind = FaultKind::kCrash;
    else if (kind == "recover") event.kind = FaultKind::kRecover;
    else if (kind == "slow") event.kind = FaultKind::kSlow;
    else if (kind == "drop-submit") event.kind = FaultKind::kDropSubmit;
    else if (kind == "duplicate") event.kind = FaultKind::kDuplicate;
    else if (kind == "reorder") event.kind = FaultKind::kReorder;
    else if (kind == "partition") event.kind = FaultKind::kPartition;
    else if (kind == "bad-share") event.kind = FaultKind::kBadShare;
    else if (kind == "inconsistent-mask")
      event.kind = FaultKind::kInconsistentMask;
    else if (kind == "equivocate-submit")
      event.kind = FaultKind::kEquivocateSubmit;
    else if (kind == "poison-update") event.kind = FaultKind::kPoisonUpdate;
    else return Status::InvalidArgument("unknown fault kind: '" + kind + "'");

    size_t next = 2;
    if (event.kind == FaultKind::kPartition) {
      if (parts[1] != "miners") {
        return Status::InvalidArgument("partition targets 'miners': '" + line +
                                       "'");
      }
      std::istringstream ids(parts[2]);
      std::string id;
      while (std::getline(ids, id, ',')) {
        BCFL_ASSIGN_OR_RETURN(uint64_t value, ParseNumber(id, "miner id"));
        event.members.push_back(static_cast<uint32_t>(value));
      }
      if (event.members.empty()) {
        return Status::InvalidArgument("empty partition cell: '" + line + "'");
      }
      event.node_kind = NodeKind::kMiner;
      next = 3;
    } else {
      if (parts[1] == "owner") event.node_kind = NodeKind::kOwner;
      else if (parts[1] == "miner") event.node_kind = NodeKind::kMiner;
      else return Status::InvalidArgument("target must be owner or miner: '" +
                                          line + "'");
      BCFL_ASSIGN_OR_RETURN(uint64_t id, ParseNumber(parts[2], "node id"));
      event.node = static_cast<uint32_t>(id);
      next = 3;
    }

    if (next >= parts.size() || parts[next][0] != '@') {
      return Status::InvalidArgument("missing @round: '" + line + "'");
    }
    std::string range = parts[next].substr(1);
    size_t dots = range.find("..");
    if (dots == std::string::npos) {
      BCFL_ASSIGN_OR_RETURN(event.round, ParseNumber(range, "round"));
      event.end_round = event.round;
    } else {
      BCFL_ASSIGN_OR_RETURN(event.round,
                            ParseNumber(range.substr(0, dots), "round"));
      BCFL_ASSIGN_OR_RETURN(event.end_round,
                            ParseNumber(range.substr(dots + 2), "end round"));
      if (event.end_round < event.round) {
        return Status::InvalidArgument("inverted round range: '" + line + "'");
      }
    }

    for (++next; next < parts.size(); ++next) {
      const std::string& extra = parts[next];
      if (extra[0] == 'x') {
        BCFL_ASSIGN_OR_RETURN(uint64_t count,
                              ParseNumber(extra.substr(1), "drop count"));
        event.count = static_cast<uint32_t>(count);
      } else if (extra[0] == '+') {
        std::string value = extra.substr(1);
        if (value.size() >= 2 && value.substr(value.size() - 2) == "us") {
          value.erase(value.size() - 2);
        }
        BCFL_ASSIGN_OR_RETURN(event.delay_us, ParseNumber(value, "delay"));
      } else if (extra[0] == '*') {
        BCFL_ASSIGN_OR_RETURN(event.magnitude,
                              ParseMagnitude(extra.substr(1)));
      } else {
        return Status::InvalidArgument("unexpected token '" + extra +
                                       "' in: '" + line + "'");
      }
    }
    if (event.kind == FaultKind::kPoisonUpdate && event.magnitude == 0.0) {
      return Status::InvalidArgument("poison-update needs *<magnitude>: '" +
                                     line + "'");
    }
    plan.events.push_back(std::move(event));
  }
  return plan;
}

FaultPlan FaultPlan::Random(uint64_t seed, const FaultPlanOptions& options) {
  FaultPlan plan;
  Xoshiro256 rng(seed);
  const uint32_t n = options.num_owners;
  const uint32_t m = options.num_miners;
  const uint32_t rounds = std::max<uint32_t>(options.rounds, 1);
  const size_t threshold =
      crypto::ResolveThreshold(options.shamir_threshold, n);
  auto random_round = [&]() -> uint64_t { return rng.NextBounded(rounds); };
  auto random_window = [&](FaultEvent* event) {
    event->round = random_round();
    event->end_round =
        event->round + rng.NextBounded(rounds - event->round);
  };

  // Owner crashes: spend at most the recovery budget (n - threshold), so
  // at least `threshold` share-holders stay online for every reveal.
  const size_t owner_budget = n > threshold ? n - threshold : 0;
  std::vector<uint32_t> owners(n);
  for (uint32_t i = 0; i < n; ++i) owners[i] = i;
  rng.Shuffle(&owners);
  std::vector<bool> slot_crashed(owner_budget, false);
  for (size_t i = 0; i < owner_budget; ++i) {
    if (rng.NextDouble() >= kOwnerCrashRate) continue;
    FaultEvent crash;
    crash.kind = FaultKind::kCrash;
    crash.node_kind = NodeKind::kOwner;
    crash.node = owners[i];
    crash.round = crash.end_round = random_round();
    plan.events.push_back(crash);
    slot_crashed[i] = true;
  }

  // Miner disruptions: crashes and at most one partition window share a
  // token budget that keeps a strict majority online and connected.
  size_t miner_tokens = m > 0 ? (m - 1) / 2 : 0;
  std::vector<uint32_t> miners(m);
  for (uint32_t i = 0; i < m; ++i) miners[i] = i;
  rng.Shuffle(&miners);
  size_t next_miner = 0;
  if (miner_tokens > 0 && rng.NextDouble() < kPartitionRate) {
    FaultEvent partition;
    partition.kind = FaultKind::kPartition;
    partition.node_kind = NodeKind::kMiner;
    size_t cell = 1 + rng.NextBounded(miner_tokens);
    for (size_t i = 0; i < cell; ++i) {
      partition.members.push_back(miners[next_miner++]);
    }
    random_window(&partition);
    plan.events.push_back(partition);
    miner_tokens -= cell;
  }
  for (size_t t = 0; t < miner_tokens; ++t) {
    if (rng.NextDouble() >= kMinerCrashRate) continue;
    FaultEvent crash;
    crash.kind = FaultKind::kCrash;
    crash.node_kind = NodeKind::kMiner;
    crash.node = miners[next_miner++];
    crash.round = crash.end_round = rng.NextBounded(rounds);
    plan.events.push_back(crash);
    if (crash.round + 1 < rounds && rng.NextDouble() < 0.7) {
      FaultEvent recover;
      recover.kind = FaultKind::kRecover;
      recover.node_kind = NodeKind::kMiner;
      recover.node = crash.node;
      recover.round = recover.end_round =
          crash.round + 1 + rng.NextBounded(rounds - crash.round - 1);
      plan.events.push_back(recover);
    }
  }

  // Liveness-neutral noise: slow nodes, lost submission attempts,
  // duplicated and reordered miner traffic.
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < kSlowRate) {
      FaultEvent slow;
      slow.kind = FaultKind::kSlow;
      slow.node_kind = NodeKind::kOwner;
      slow.node = i;
      random_window(&slow);
      slow.delay_us = 1 + rng.NextBounded(kMaxExtraDelayUs);
      plan.events.push_back(slow);
    }
    if (rng.NextDouble() < kDropSubmitRate) {
      FaultEvent drop;
      drop.kind = FaultKind::kDropSubmit;
      drop.node_kind = NodeKind::kOwner;
      drop.node = i;
      drop.round = drop.end_round = random_round();
      drop.count = 1 + static_cast<uint32_t>(rng.NextBounded(2));
      plan.events.push_back(drop);
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    if (rng.NextDouble() < kSlowRate) {
      FaultEvent slow;
      slow.kind = FaultKind::kSlow;
      slow.node_kind = NodeKind::kMiner;
      slow.node = i;
      random_window(&slow);
      slow.delay_us = 1 + rng.NextBounded(kMaxExtraDelayUs);
      plan.events.push_back(slow);
    }
    if (rng.NextDouble() < kDuplicateRate) {
      FaultEvent dup;
      dup.kind = FaultKind::kDuplicate;
      dup.node_kind = NodeKind::kMiner;
      dup.node = i;
      random_window(&dup);
      plan.events.push_back(dup);
    }
    if (rng.NextDouble() < kReorderRate) {
      FaultEvent reorder;
      reorder.kind = FaultKind::kReorder;
      reorder.node_kind = NodeKind::kMiner;
      reorder.node = i;
      random_window(&reorder);
      plan.events.push_back(reorder);
    }
  }
  // Byzantine owners (PR 9), drawn strictly after every crash/noise draw
  // so plans from pre-existing seeds replay bit-identically (the extra
  // draws only happen when the rate is enabled, and then only at the tail
  // of the stream). Byzantine owners come from the unused slots of the
  // shuffled crash budget: a misbehaving owner is slashed and permanently
  // retired, so |crashed ∪ byzantine| never exceeds the recovery budget
  // and every reveal keeps its threshold of honest holders.
  if (options.byzantine_rate > 0.0) {
    for (size_t i = 0; i < owner_budget; ++i) {
      if (slot_crashed[i]) continue;
      if (rng.NextDouble() >= options.byzantine_rate) continue;
      FaultEvent evil;
      evil.node_kind = NodeKind::kOwner;
      evil.node = owners[i];
      evil.round = evil.end_round = random_round();
      switch (rng.NextBounded(4)) {
        case 0:
          // Forged reveals only fire when some other owner needs recovery
          // that round; otherwise the event is a harmless no-op.
          evil.kind = FaultKind::kBadShare;
          break;
        case 1: evil.kind = FaultKind::kEquivocateSubmit; break;
        case 2:
          evil.kind = FaultKind::kPoisonUpdate;
          evil.magnitude = kPoisonMagnitude;
          break;
        default: evil.kind = FaultKind::kInconsistentMask; break;
      }
      plan.events.push_back(evil);
    }
  }
  return plan;
}

Status FaultPlan::Validate(uint32_t num_owners, uint32_t num_miners,
                           size_t shamir_threshold) const {
  const size_t threshold =
      crypto::ResolveThreshold(shamir_threshold, num_owners);
  uint64_t horizon = 0;
  std::set<uint32_t> unavailable_owners;
  for (const auto& event : events) {
    horizon = std::max(horizon, event.end_round);
    if (event.end_round < event.round) {
      return Status::InvalidArgument("inverted interval: " + event.ToString());
    }
    if (event.kind == FaultKind::kKill) {
      // Kills never cost liveness: the process restarts and resumes.
      continue;
    }
    if (event.kind == FaultKind::kPartition) {
      for (uint32_t id : event.members) {
        if (id >= num_miners) {
          return Status::OutOfRange("partition names unknown miner " +
                                    std::to_string(id));
        }
      }
      continue;
    }
    const uint32_t limit =
        event.node_kind == NodeKind::kOwner ? num_owners : num_miners;
    if (event.node >= limit) {
      return Status::OutOfRange("fault targets unknown node: " +
                                event.ToString());
    }
    if (event.kind == FaultKind::kDropSubmit &&
        event.node_kind != NodeKind::kOwner) {
      return Status::InvalidArgument("drop-submit targets owners only");
    }
    if ((event.kind == FaultKind::kDuplicate ||
         event.kind == FaultKind::kReorder) &&
        event.node_kind != NodeKind::kMiner) {
      return Status::InvalidArgument(std::string(KindName(event.kind)) +
                                     " targets miners only");
    }
    if (IsByzantine(event.kind)) {
      if (event.node_kind != NodeKind::kOwner) {
        return Status::InvalidArgument(std::string(KindName(event.kind)) +
                                       " targets owners only");
      }
      if (event.kind == FaultKind::kPoisonUpdate && event.magnitude <= 1.0) {
        return Status::InvalidArgument(
            "poison-update needs a magnitude > 1: " + event.ToString());
      }
    }
    if ((event.kind == FaultKind::kCrash || IsByzantine(event.kind)) &&
        event.node_kind == NodeKind::kOwner) {
      unavailable_owners.insert(event.node);
    }
  }
  // An owner that misses a round deadline is retired for good, and so is
  // a slashed byzantine owner — both permanently stop answering reveals.
  // The *union* of distinct crashed and byzantine owners is therefore the
  // right budget regardless of recover events.
  if (unavailable_owners.size() + threshold > num_owners) {
    return Status::FailedPrecondition(
        "plan crashes or corrupts " + std::to_string(unavailable_owners.size()) +
        " owners but only " + std::to_string(num_owners - threshold) +
        " may drop before Shamir recovery (t=" + std::to_string(threshold) +
        ") fails closed");
  }

  // Per-round miner liveness: online miners in the majority connectivity
  // cell must stay a strict majority of the full roster. Crash/recover
  // replay must walk events in round order — the plan may list them in
  // any order — so the latest event at or before the round decides.
  const std::vector<const FaultEvent*> ordered = EventsByRound(events);
  for (uint64_t round = 0; round <= horizon; ++round) {
    std::set<uint32_t> offline;
    for (const FaultEvent* event : ordered) {
      if (event->node_kind != NodeKind::kMiner) continue;
      if (event->kind == FaultKind::kCrash && event->round <= round) {
        offline.insert(event->node);
      }
      if (event->kind == FaultKind::kRecover && event->round <= round) {
        offline.erase(event->node);
      }
    }
    std::set<uint32_t> minority;
    for (const auto& event : events) {
      if (event.kind != FaultKind::kPartition) continue;
      if (event.round <= round && round <= event.end_round) {
        minority.insert(event.members.begin(), event.members.end());
      }
    }
    size_t connected_online = 0;
    for (uint32_t id = 0; id < num_miners; ++id) {
      if (offline.count(id) == 0 && minority.count(id) == 0) {
        ++connected_online;
      }
    }
    if (connected_online * 2 <= num_miners) {
      return Status::FailedPrecondition(
          "round " + std::to_string(round) + " leaves only " +
          std::to_string(connected_online) + "/" +
          std::to_string(num_miners) +
          " miners online and connected; consensus would stall");
    }
  }
  return Status::OK();
}

}  // namespace bcfl::fault
