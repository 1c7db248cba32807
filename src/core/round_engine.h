#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "fault/injector.h"
#include "fl/client.h"
#include "ml/matrix.h"
#include "secureagg/participant.h"

namespace bcfl::core {

/// Byzantine update perturbations, applied by the fan-out. Both are
/// pure functions of their arguments, so a perturbed submission does not
/// depend on the pool size or on which worker built it.
namespace byzantine {

/// The weights a poisoning owner actually encodes: its honest local
/// update scaled by `magnitude` (the `poison-update *m` DSL knob).
ml::Matrix PoisonedWeights(const ml::Matrix& local, double magnitude);

/// An inconsistent-mask owner's submission: the honestly masked vector
/// plus a deterministic per-(round, owner) SplitMix64 garbage stream.
/// The garbage never cancels against any peer's mask, so the group's
/// decoded aggregate lands far outside the honest envelope and the
/// contract's norm gate flags it.
void CorruptMaskedUpdate(uint64_t round, uint32_t owner,
                         std::vector<uint64_t>* masked);

}  // namespace byzantine

/// Per-owner slot of the round scratch: everything one owner's phase work
/// produces, plus the buffers it reuses round over round. Slots are
/// index-addressed — worker k only ever touches slot `active[k]` — which
/// is what makes the fan-out race-free without any locking.
struct OwnerRoundSlot {
  /// True when the owner trains this round (online, not retired).
  bool active = false;
  ml::Matrix local;                      ///< Trained local weights.
  std::vector<uint64_t> encoded;         ///< Fixed-point encoding.
  std::vector<uint64_t> masked;          ///< Pairwise-masked update.
  Bytes payload;                         ///< Serialized submit_update body.
  std::vector<secureagg::OwnerId> group_members;
  secureagg::MaskScratch mask_scratch;   ///< Mask buffers, reused.
  Status status = Status::OK();
};

/// Reusable arena for the per-owner fan-out. `Reset` clears per-round
/// state but keeps every buffer's capacity, so from the second round on
/// the fan-out allocates nothing beyond what training itself needs.
struct RoundScratch {
  std::vector<OwnerRoundSlot> slots;
  void Reset(size_t num_owners);
};

/// The per-owner half of the coordinator's round loop: fans per-owner
/// local training, fixed-point encoding, pairwise mask expansion and
/// payload serialization across the shared ThreadPool. Everything that
/// orders protocol state — simulated-clock advances, injector drop
/// draws, transaction signing (which consumes the session RNG) and chain
/// submission — stays on the coordinator thread, replayed in canonical
/// owner order. Since training and masking touch neither the clock nor
/// the session RNG, the replayed sequence of protocol events does not
/// depend on the pool size, which is the determinism argument (DESIGN.md
/// §13).
class RoundEngine {
 public:
  /// Non-owning references into the coordinator. `injector` (nullable) is
  /// only read via const queries; `BeginRound` must have run on the
  /// coordinator thread before `PrepareOwners` (see fault/injector.h for
  /// the thread-safety contract).
  struct Deps {
    std::vector<fl::FlClient>* clients = nullptr;
    std::vector<std::unique_ptr<secureagg::SecureAggParticipant>>*
        participants = nullptr;
    const fault::FaultInjector* injector = nullptr;
    const std::map<uint32_t, uint64_t>* retired = nullptr;
    int fixed_point_bits = 24;
  };

  /// `pool` (non-owning) must outlive the engine.
  RoundEngine(Deps deps, ThreadPool* pool) : deps_(deps), pool_(pool) {}

  /// Trains, encodes, masks and serializes every participating owner's
  /// update for `round` into `scratch` (grain 1: one owner per pool
  /// task). Offline/retired owners get inactive slots; the caller decides
  /// dropouts during replay. On a per-owner failure the lowest-indexed
  /// owner's error is returned, whatever the pool size. Traced as one
  /// `fl/owner_fanout` span (barrier to barrier) with one
  /// `fl/local_update` span per owner on the worker that trained it.
  Status PrepareOwners(uint64_t round, const ml::Matrix& global,
                       const std::vector<std::vector<size_t>>& groups,
                       RoundScratch* scratch);

 private:
  Deps deps_;
  ThreadPool* pool_;
};

}  // namespace bcfl::core
