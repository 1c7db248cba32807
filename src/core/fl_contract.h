#pragma once

#include <memory>

#include "chain/contract.h"
#include "core/params.h"
#include "core/state_keys.h"
#include "ml/dataset.h"
#include "secureagg/aggregator.h"
#include "shapley/utility.h"

namespace bcfl {
class ThreadPool;
}  // namespace bcfl

namespace bcfl::core {

/// The setup roster as a secure aggregator: the default DH group and the
/// owners' broadcast DH public keys. Both contracts unmask and check
/// revealed keys through it, so every miner runs the library's own
/// aggregation code.
secureagg::SecureAggregator RosterAggregator(const SetupParams& params);

/// The BCFL smart contract — "Smart contract builds the FL model and
/// evaluates the contribution" (Sect. III).
///
/// Methods (dispatched on tx.method()):
///  - "setup": publishes the agreed `SetupParams`; must be the first tx,
///    signed by owner 0 (the session initiator).
///  - "recover": payload = (round, dropped owner id, that owner's DH
///    private key, reconstructed off-chain from the threshold of Shamir
///    shares the owner distributed at setup). The contract *verifies*
///    the revealed key against the owner's published DH public key
///    (g^x == pub) before accepting it — a forged recovery cannot
///    corrupt the aggregate. Once every owner of a round has either
///    submitted or been recovered, the round evaluates over the
///    survivors: residual pairwise masks of the dropped members are
///    regenerated from the revealed keys and removed, group models are
///    means over survivors, and dropped owners score 0 for the round.
///  - "submit_update": payload = (round, owner_id, masked ring vector).
///    The contract checks that the tx is signed with the owner's
///    registered Schnorr key and that the owner has not already
///    submitted for the round. When the round's last update arrives the
///    contract immediately — and deterministically — runs the on-chain
///    pipeline: within-group ring sums (pairwise masks cancel), decode
///    to group models W_j, coalition models over the powerset of groups,
///    GroupSV (Algorithm 1), the global model W_G, and accumulated
///    per-owner totals. Every miner re-executes this and consensus
///    compares the resulting state roots, which is exactly what makes
///    the evaluation transparent and verifiable. The completing
///    transaction also deletes the round's masked updates and the
///    previous global model: no later execution reads them, and the
///    blocks keep them. A round the norm gate held open keeps its
///    updates until the next round completes, as evidence for its
///    audit's remaining accusations. A submit_update or recover for an
///    evaluated round fails with FailedPrecondition.
///
/// The utility's validation dataset is public setup data replicated on
/// every miner (a `TestAccuracyUtility` over the agreed test split).
class FlContract : public chain::SmartContract {
 public:
  /// `validation_set`: the public test split agreed at setup. `pool`
  /// (not owned, may be null) scores a round's 2^m coalitions; it must
  /// outlive the contract. An execution that already runs on a worker
  /// of a pool scores inline on that worker, and the scores are
  /// bit-identical for every pool size and for none.
  explicit FlContract(ml::Dataset validation_set, ThreadPool* pool = nullptr);

  std::string name() const override { return "bcfl"; }

  Status Execute(const chain::Transaction& tx,
                 chain::ContractState* state) override;

  /// Encodes a submit_update payload (helper for owners).
  static Bytes EncodeSubmitUpdate(uint64_t round, uint32_t owner,
                                  const std::vector<uint64_t>& masked);

  /// Encodes a recover payload (helper for the share-reveal step).
  static Bytes EncodeRecover(uint64_t round, uint32_t dropped_owner,
                             const crypto::UInt256& dh_private_key);

  /// Re-runs the round-completeness check against current state. Public
  /// so the SlashContract can trigger the (deterministic) evaluation
  /// after a conviction converts an offender into a dropout — the exact
  /// hook submit_update and recover use internally.
  Status EvaluateIfComplete(uint64_t round, chain::ContractState* state);

 private:
  Status ExecuteSetup(const chain::Transaction& tx,
                      chain::ContractState* state);
  Status ExecuteSubmitUpdate(const chain::Transaction& tx,
                             chain::ContractState* state);
  Status ExecuteRecover(const chain::Transaction& tx,
                        chain::ContractState* state);
  /// Evaluates the round once every owner has submitted, been recovered
  /// this round, or retired in an earlier one.
  Status MaybeEvaluateRound(const SetupParams& params, uint64_t round,
                            chain::ContractState* state);
  /// Runs group aggregation + GroupSV over the round's survivors.
  Status EvaluateRound(const SetupParams& params, uint64_t round,
                       chain::ContractState* state);

  ml::Dataset validation_set_;
  ThreadPool* pool_;
  /// Shared memoizing utility (pure function of the weights, so sharing
  /// one instance across miner replicas cannot break determinism).
  std::unique_ptr<shapley::CachingUtility> utility_;
};

}  // namespace bcfl::core
