#pragma once

#include "chain/contract.h"
#include "common/bytes.h"

namespace bcfl::core {

/// On-chain reward distribution — the incentive mechanism the paper's
/// introduction motivates ("a fair reward based on their contributions").
///
/// Shares the contract state with `FlContract`: once the final FL round
/// has completed on chain, anyone can trigger a deterministic
/// distribution of the funded pool proportionally to the accumulated
/// `sv_total/<owner>` scores (negative scores clamp to zero). Owners
/// then claim their allocations with their registered signing keys.
///
/// Methods:
///  - "fund":       payload = u64 amount; adds to the pool. Must happen
///                  before distribution.
///  - "distribute": payload = empty; requires setup done, all rounds
///                  complete and a non-empty pool; writes one
///                  allocation per owner and locks the pool.
///  - "claim":      payload = u32 owner id; the tx must be signed with
///                  that owner's key from the setup roster; moves the
///                  allocation to the claimed ledger. Double claims
///                  fail.
///
/// Slashed owners (a `slashed/<owner>` conviction record on chain) have
/// their allocation *burned* at distribution: it is moved to the
/// "reward/burned" sink instead of their claimable balance, so
/// misbehavior forfeits the pending reward without inflating anyone
/// else's share (PR 9).
///
/// State keys (core/state_keys.h): `keys::RewardPool`,
/// `RewardDistributed`, `RewardAllocation`, `RewardClaimed` and
/// `RewardBurned`, each holding a u64.
class RewardContract : public chain::SmartContract {
 public:
  std::string name() const override { return "reward"; }

  Status Execute(const chain::Transaction& tx,
                 chain::ContractState* state) override;

  static Bytes EncodeFund(uint64_t amount);
  static Bytes EncodeClaim(uint32_t owner);

 private:
  Status ExecuteFund(const chain::Transaction& tx,
                     chain::ContractState* state);
  Status ExecuteDistribute(chain::ContractState* state);
  Status ExecuteClaim(const chain::Transaction& tx,
                      chain::ContractState* state);
};

}  // namespace bcfl::core
