#include "core/round_engine.h"

#include "common/rng.h"
#include "core/fl_contract.h"
#include "obs/trace.h"
#include "secureagg/fixed_point.h"
#include "shapley/group_sv.h"

namespace bcfl::core {

namespace byzantine {

ml::Matrix PoisonedWeights(const ml::Matrix& local, double magnitude) {
  return local.Scaled(magnitude);
}

void CorruptMaskedUpdate(uint64_t round, uint32_t owner,
                         std::vector<uint64_t>* masked) {
  // Seeded from (round, owner) only: the corruption an owner submits is a
  // property of the owner's misbehavior, not of which worker built it.
  SplitMix64 stream(((round + 1) * 0x9e3779b97f4a7c15ULL) ^
                    ((static_cast<uint64_t>(owner) << 32) | 0xbadc0deULL));
  for (uint64_t& word : *masked) word += stream.Next();
}

}  // namespace byzantine

void RoundScratch::Reset(size_t num_owners) {
  if (slots.size() != num_owners) slots.resize(num_owners);
  for (OwnerRoundSlot& slot : slots) {
    slot.active = false;
    slot.group_members.clear();
    slot.status = Status::OK();
    // local/encoded/masked/payload/mask_scratch keep their storage; every
    // active phase overwrites them before they are read again.
  }
}

Status RoundEngine::PrepareOwners(uint64_t round, const ml::Matrix& global,
                                  const std::vector<std::vector<size_t>>& groups,
                                  RoundScratch* scratch) {
  const size_t n = deps_.clients->size();
  scratch->Reset(n);

  // Participation and grouping are decided here on the coordinator
  // thread: the injector's per-round sets were computed by
  // BeginRound (also coordinator thread) and are immutable during the
  // round, so these const reads are ordered-before the fan-out below.
  std::vector<uint32_t> active;
  active.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (deps_.retired != nullptr && deps_.retired->count(i) > 0) continue;
    if (deps_.injector != nullptr && deps_.injector->OwnerOffline(i)) continue;
    OwnerRoundSlot& slot = scratch->slots[i];
    BCFL_ASSIGN_OR_RETURN(const size_t group, shapley::GroupOf(groups, i));
    slot.group_members.assign(groups[group].begin(), groups[group].end());
    slot.active = true;
    active.push_back(i);
  }

  const secureagg::FixedPointCodec codec(deps_.fixed_point_bits);
  // One owner per task (grain 1): training dominates and owner costs are
  // uneven (different partition sizes, different group fan-ins), so fine
  // chunks load-balance. Worker k writes only slot active[k] — disjoint
  // slots, no shared mutable state, no locks.
  auto prepare_one = [&](size_t k) {
    const uint32_t i = active[k];
    OwnerRoundSlot& slot = scratch->slots[i];
    auto local = [&] {
      obs::ScopedSpan span(obs::Tracer::Global(), "local_update", "fl");
      return (*deps_.clients)[i].LocalUpdate(global);
    }();
    if (!local.ok()) {
      slot.status = local.status();
      return;
    }
    slot.local = std::move(local).value();
    // Byzantine perturbations (PR 9): a poisoning owner encodes scaled
    // weights (slot.local stays the honest model); an inconsistent-mask
    // owner corrupts the masked vector after honest masking. Injector
    // queries are const per-round sets — safe from workers.
    const double poison =
        deps_.injector != nullptr ? deps_.injector->OwnerPoisonMagnitude(i)
                                  : 0.0;
    if (poison != 0.0) {
      codec.EncodeMatrixInto(byzantine::PoisonedWeights(slot.local, poison),
                             &slot.encoded);
    } else {
      codec.EncodeMatrixInto(slot.local, &slot.encoded);
    }
    Status masked = (*deps_.participants)[i]->MaskUpdateInto(
        round, slot.group_members, slot.encoded, &slot.mask_scratch,
        &slot.masked);
    if (!masked.ok()) {
      slot.status = masked;
      return;
    }
    if (deps_.injector != nullptr && deps_.injector->OwnerInconsistentMask(i)) {
      byzantine::CorruptMaskedUpdate(round, i, &slot.masked);
    }
    slot.payload = FlContract::EncodeSubmitUpdate(round, i, slot.masked);
  };
  {
    obs::ScopedSpan span(obs::Tracer::Global(), "owner_fanout", "fl");
    if (active.size() > 1) {
      pool_->ParallelFor(active.size(), prepare_one, /*grain=*/1);
    } else {
      for (size_t k = 0; k < active.size(); ++k) prepare_one(k);
    }
  }

  // Surface the lowest-indexed owner's error, whichever worker finished
  // first.
  for (uint32_t i : active) {
    const OwnerRoundSlot& slot = scratch->slots[i];
    if (!slot.status.ok()) return slot.status;
  }
  return Status::OK();
}

}  // namespace bcfl::core
