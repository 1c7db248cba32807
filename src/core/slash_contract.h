#pragma once

#include <memory>

#include "chain/contract.h"
#include "chain/transaction.h"
#include "core/fl_contract.h"
#include "core/params.h"
#include "crypto/schnorr.h"
#include "crypto/shamir.h"

namespace bcfl::core {

/// The accusation → verification → slashing contract ("slash").
///
/// Every slash transaction carries the *evidence* of the misbehavior, and
/// the contract re-verifies it deterministically — so a conviction holds
/// exactly when every honest miner, re-executing the block, reaches the
/// same verdict; a bogus accusation (adversarial leader) fails evidence
/// verification on re-execution and its block is rejected. Payload layout:
/// (round u64, offender u32, kind u8, offender's revealed DH private key
/// 32B, kind-specific blob).
///
/// The revealed key is part of *every* evidence payload: a conviction must
/// not stall the round, and the survivors' residual pairwise masks against
/// the offender can only be cancelled from its key — reconstructed
/// off-chain from the threshold of VSS-verified Shamir shares, exactly as
/// the dropout path does. The contract checks g^x == pub_offender, then
/// converts the offender into a dropout with `ConvictOwner`
/// (core/state_keys.h): its submitted update (if any) is deleted, a
/// `dropped/` record carries the key into aggregation, the owner is
/// permanently retired through the recovery path's `RetireOwner`, and a
/// `slashed/` record marks the conviction (its `SlashKind`) so the reward
/// distribution burns the owner's allocation. The round then degrades
/// over the honest survivors with SVs recomputed exactly as the dropout
/// path does.
///
/// Kind-specific evidence:
///  - kBadShare: (dealer u32, share, offender's signature over the reveal
///    message). Valid iff the signature binds the share to the offender,
///    the share sits in the offender's slot (x = offender + 1), and the
///    share FAILS Feldman verification against the dealer's on-chain VSS
///    commitment. An honest share verifies, so the accusation dies.
///  - kEquivocation: two full serialized transactions. Valid iff both are
///    validly signed `submit_update`s by the offender for this round with
///    different payloads.
///  - kNormViolation: no blob. The contract unmasks the offender's own
///    on-chain submission with the revealed key (subtracting its pairwise
///    masks against its group roster), decodes it, and convicts iff the
///    L2 norm exceeds the setup's `update_norm_bound`. Evaluation prunes
///    a round's submissions, so an accusation against an evaluated round
///    whose update is gone fails with FailedPrecondition. A round the
///    norm gate held open keeps them until the next round completes, so
///    every accusation of its audit still convicts. The other kinds carry
///    their evidence and convict late at any time.
class SlashContract : public chain::SmartContract {
 public:
  /// `fl` is the registered FL contract instance: a completing slash
  /// triggers its round evaluation, like the last submit/recover would.
  explicit SlashContract(std::shared_ptr<FlContract> fl);

  std::string name() const override { return "slash"; }

  Status Execute(const chain::Transaction& tx,
                 chain::ContractState* state) override;

  /// The authenticated share-reveal message a holder signs; the signature
  /// is what pins a forged share on its sender.
  static Bytes BadShareMessage(uint64_t round, uint32_t dealer,
                               const crypto::ShamirShare& share);

  // Payload encoders (helpers for the accusing coordinator and tests).
  static Bytes EncodeBadShare(uint64_t round, uint32_t offender,
                              const crypto::UInt256& offender_key,
                              uint32_t dealer,
                              const crypto::ShamirShare& share,
                              const crypto::SchnorrSignature& reveal_sig);
  static Bytes EncodeEquivocation(uint64_t round, uint32_t offender,
                                  const crypto::UInt256& offender_key,
                                  const chain::Transaction& first,
                                  const chain::Transaction& second);
  static Bytes EncodeNormViolation(uint64_t round, uint32_t offender,
                                   const crypto::UInt256& offender_key);

  /// L2 norm of `owner`'s on-chain round submission after stripping its
  /// pairwise masks with the revealed private key — the deterministic
  /// measurement both the contract's verification and the coordinator's
  /// flagged-group audit apply. Fails when the owner has no update on
  /// chain or the key material is malformed.
  static Result<double> UnmaskedUpdateNorm(const SetupParams& params,
                                           uint64_t round, uint32_t owner,
                                           const crypto::UInt256& owner_key,
                                           const chain::ContractState& state);

 private:
  Status VerifyBadShare(const SetupParams& params, uint64_t round,
                        uint32_t offender, ByteReader* reader) const;
  Status VerifyEquivocation(const SetupParams& params, uint64_t round,
                            uint32_t offender, ByteReader* reader) const;
  Status VerifyNormViolation(const SetupParams& params, uint64_t round,
                             uint32_t offender,
                             const crypto::UInt256& offender_key,
                             chain::ContractState* state) const;

  std::shared_ptr<FlContract> fl_;
  crypto::Schnorr schnorr_;  ///< Verifies evidence signatures.
};

}  // namespace bcfl::core
