#include "core/reward_contract.h"

#include <algorithm>
#include <cmath>

#include "core/state_keys.h"

namespace bcfl::core {

Bytes RewardContract::EncodeFund(uint64_t amount) {
  ByteWriter writer;
  writer.WriteU64(amount);
  return writer.Take();
}

Bytes RewardContract::EncodeClaim(uint32_t owner) {
  ByteWriter writer;
  writer.WriteU32(owner);
  return writer.Take();
}

Status RewardContract::Execute(const chain::Transaction& tx,
                               chain::ContractState* state) {
  if (tx.method() == "fund") return ExecuteFund(tx, state);
  if (tx.method() == "distribute") return ExecuteDistribute(state);
  if (tx.method() == "claim") return ExecuteClaim(tx, state);
  return Status::Unimplemented("unknown method: " + tx.method());
}

Status RewardContract::ExecuteFund(const chain::Transaction& tx,
                                   chain::ContractState* state) {
  if (state->Has(keys::RewardDistributed())) {
    return Status::FailedPrecondition("pool already distributed");
  }
  ByteReader reader(tx.payload());
  BCFL_ASSIGN_OR_RETURN(uint64_t amount, reader.ReadU64());
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in fund payload");
  }
  if (amount == 0) {
    return Status::InvalidArgument("cannot fund zero");
  }
  BCFL_ASSIGN_OR_RETURN(uint64_t pool,
                        GetU64OrZero(*state, keys::RewardPool()));
  if (pool + amount < pool) {
    return Status::OutOfRange("pool overflow");
  }
  PutU64(state, keys::RewardPool(), pool + amount);
  return Status::OK();
}

Status RewardContract::ExecuteDistribute(chain::ContractState* state) {
  if (state->Has(keys::RewardDistributed())) {
    return Status::AlreadyExists("already distributed");
  }
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));
  // All agreed rounds must have completed.
  if (!state->Has(keys::RoundComplete(params.rounds - 1))) {
    return Status::FailedPrecondition(
        "training has not finished: final round incomplete");
  }
  BCFL_ASSIGN_OR_RETURN(uint64_t pool,
                        GetU64OrZero(*state, keys::RewardPool()));
  if (pool == 0) {
    return Status::FailedPrecondition("reward pool is empty");
  }

  // Clamp negative contributions; distribute proportionally with
  // integer arithmetic (largest-remainder for the dust so the total
  // always sums to the pool exactly and deterministically).
  std::vector<double> scores(params.num_owners, 0.0);
  double total = 0;
  for (uint32_t i = 0; i < params.num_owners; ++i) {
    if (!state->Has(keys::TotalSv(i))) continue;  // Never scored.
    BCFL_ASSIGN_OR_RETURN(double sv, GetDouble(*state, keys::TotalSv(i)));
    scores[i] = std::max(0.0, sv);
    total += scores[i];
  }
  std::vector<uint64_t> allocations(params.num_owners, 0);
  if (total <= 0.0) {
    // Degenerate: split evenly.
    uint64_t each = pool / params.num_owners;
    for (auto& a : allocations) a = each;
    allocations[0] += pool - each * params.num_owners;
  } else {
    uint64_t assigned = 0;
    std::vector<std::pair<double, uint32_t>> remainders;
    for (uint32_t i = 0; i < params.num_owners; ++i) {
      double exact = static_cast<double>(pool) * scores[i] / total;
      allocations[i] = static_cast<uint64_t>(exact);
      assigned += allocations[i];
      remainders.push_back({exact - std::floor(exact), i});
    }
    // Hand the dust to the largest fractional parts (ties by owner id
    // for determinism).
    std::sort(remainders.begin(), remainders.end(), [](auto a, auto b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (uint64_t dust = pool - assigned; dust > 0; --dust) {
      allocations[remainders[(pool - assigned) - dust].second] += 1;
    }
  }

  // Slashing forfeits the pending reward (PR 9): a convicted owner's
  // proportional allocation is moved to the burn sink, not redistributed
  // — honest owners' payouts are exactly what they would have been had
  // the offender stayed honest with the same scores.
  uint64_t burned = 0;
  for (uint32_t i = 0; i < params.num_owners; ++i) {
    if (state->Has(keys::Slashed(i))) {
      burned += allocations[i];
      allocations[i] = 0;
    }
  }
  if (burned > 0) {
    PutU64(state, keys::RewardBurned(), burned);
  }

  for (uint32_t i = 0; i < params.num_owners; ++i) {
    PutU64(state, keys::RewardAllocation(i), allocations[i]);
  }
  PutU64(state, keys::RewardDistributed(), 1);
  return Status::OK();
}

Status RewardContract::ExecuteClaim(const chain::Transaction& tx,
                                    chain::ContractState* state) {
  if (!state->Has(keys::RewardDistributed())) {
    return Status::FailedPrecondition("rewards not yet distributed");
  }
  ByteReader reader(tx.payload());
  BCFL_ASSIGN_OR_RETURN(uint32_t owner, reader.ReadU32());
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in claim payload");
  }
  BCFL_ASSIGN_OR_RETURN(SetupParams params, LoadSetupParams(*state));
  if (owner >= params.num_owners) {
    return Status::InvalidArgument("unknown owner id");
  }
  if (tx.sender() != params.schnorr_public_keys[owner]) {
    return Status::PermissionDenied(
        "claim signed with a key not registered for owner " +
        std::to_string(owner));
  }
  if (state->Has(keys::RewardClaimed(owner))) {
    return Status::AlreadyExists("already claimed");
  }
  BCFL_ASSIGN_OR_RETURN(uint64_t allocation,
                        GetU64OrZero(*state, keys::RewardAllocation(owner)));
  PutU64(state, keys::RewardClaimed(owner), allocation);
  return Status::OK();
}

}  // namespace bcfl::core
