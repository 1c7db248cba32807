#include "core/adversary.h"

#include "core/state_keys.h"

namespace bcfl::core {

chain::MinerBehavior MakeSvInflationBehavior(uint32_t beneficiary_owner,
                                             double inflation) {
  chain::MinerBehavior behavior;
  behavior.tamper_state = [beneficiary_owner,
                           inflation](chain::ContractState* state) {
    std::string key = keys::TotalSv(beneficiary_owner);
    double current = 0.0;
    auto existing = GetDouble(*state, key);
    if (existing.ok()) current = *existing;
    PutDouble(state, key, current + inflation);
  };
  return behavior;
}

chain::MinerBehavior MakeSvSuppressionBehavior(uint32_t victim_owner) {
  chain::MinerBehavior behavior;
  behavior.tamper_state = [victim_owner](chain::ContractState* state) {
    std::string key = keys::TotalSv(victim_owner);
    if (state->Has(key)) {
      PutDouble(state, key, 0.0);
    }
  };
  return behavior;
}

chain::MinerBehavior MakeAlwaysRejectBehavior() {
  chain::MinerBehavior behavior;
  behavior.always_reject = true;
  return behavior;
}

chain::MinerBehavior MakeBogusSlashBehavior(uint32_t victim_owner,
                                            uint64_t round) {
  chain::MinerBehavior behavior;
  behavior.tamper_state = [victim_owner, round](chain::ContractState* state) {
    // The records a real conviction would write — minus any evidence that
    // re-verifies. It claims a norm violation nobody can re-verify, with a
    // zero "key": honest re-execution never produces these entries, so
    // the roots diverge.
    ConvictOwner(state, round, victim_owner, crypto::UInt256(),
                 SlashKind::kNormViolation);
  };
  return behavior;
}

}  // namespace bcfl::core
