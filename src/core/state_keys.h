#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chain/state.h"
#include "common/result.h"
#include "core/params.h"
#include "crypto/uint256.h"
#include "ml/matrix.h"

namespace bcfl::core {

/// Canonical contract-state key layout of the BCFL framework; the helpers
/// after it are the one encoder of every record's value. Numeric components
/// are zero-padded so prefix scans enumerate rounds and owners in order.
namespace keys {

/// "setup/params"
std::string SetupParams();
/// "update/<round>/<owner>" — a masked model update.
std::string Update(uint64_t round, uint32_t owner);
/// "group_model/<round>/<group>" — decoded group model W_j.
std::string GroupModel(uint64_t round, uint32_t group);
/// "global/<round>" — global model after the round.
std::string GlobalModel(uint64_t round);
/// "sv/<round>/<owner>" — per-round contribution v_i^r.
std::string RoundSv(uint64_t round, uint32_t owner);
/// "sv_total/<owner>" — accumulated contribution.
std::string TotalSv(uint32_t owner);
/// "round_complete/<round>" — marker written after evaluation.
std::string RoundComplete(uint64_t round);
/// "dropped/<round>/<owner>" — revealed DH private key of a dropped owner.
std::string Dropped(uint64_t round, uint32_t owner);
std::string DroppedPrefix(uint64_t round);  ///< All of a round's dropouts.
/// "retired/<owner>" — permanent retirement record (retirement round +
/// revealed DH private key). Once an owner's key is revealed by a
/// recovery it can never safely mask again, so it is retired for good.
std::string Retired(uint32_t owner);
std::string RetiredPrefix();  ///< All retirement records.
/// "slashed/<owner>" — byzantine conviction record (slash round + evidence
/// kind); the reward distribution burns the owner's allocation.
std::string Slashed(uint32_t owner);
std::string SlashedPrefix();  ///< All conviction records.
/// "flagged/<round>/<group>" — norm-gate marker: the group's decoded
/// aggregate exceeded `update_norm_bound`, so evaluation is withheld
/// until an audit slashes the offender. Deleted by the clean evaluation.
std::string Flagged(uint64_t round, uint32_t group);
std::string FlaggedPrefix(uint64_t round);  ///< All of a round's markers.
/// The reward contract's u64 records: "reward/pool", the distribution
/// lock "reward/distributed", "reward/allocation/<owner>",
/// "reward/claimed/<owner>" and the slashed owners' "reward/burned".
std::string RewardPool();
std::string RewardDistributed();
std::string RewardAllocation(uint32_t owner);
std::string RewardClaimed(uint32_t owner);
std::string RewardBurned();

/// The trailing "<i>" of a key such as "dropped/<round>/<i>" or
/// "flagged/<round>/<j>". Fails with Corruption when it is not a decimal
/// u32.
Result<uint32_t> TrailingIndex(const std::string& key);

}  // namespace keys

/// Typed values at the keys above. Every reader fails with Corruption
/// when the stored value has missing or trailing bytes, and with NotFound
/// when the key is absent (except `GetU64OrZero`).
void PutDouble(chain::ContractState* state, const std::string& key,
               double value);
Result<double> GetDouble(const chain::ContractState& state,
                         const std::string& key);
void PutMatrix(chain::ContractState* state, const std::string& key,
               const ml::Matrix& m);
Result<ml::Matrix> GetMatrix(const chain::ContractState& state,
                             const std::string& key);
void PutU64Vector(chain::ContractState* state, const std::string& key,
                  const std::vector<uint64_t>& v);
Result<std::vector<uint64_t>> GetU64Vector(const chain::ContractState& state,
                                           const std::string& key);
void PutU64(chain::ContractState* state, const std::string& key,
            uint64_t value);
/// A u64 counter; 0 when the key is absent.
Result<uint64_t> GetU64OrZero(const chain::ContractState& state,
                              const std::string& key);

/// The setup record, decoded. Fails with FailedPrecondition("setup has
/// not run") when it is absent, and with the decoder's error when it is
/// malformed. Every contract reads the setup through this function.
Result<SetupParams> LoadSetupParams(const chain::ContractState& state);

/// Evidence category of a conviction, stored in its `slashed/<owner>`
/// record and carried in slash payloads.
enum class SlashKind : uint8_t {
  kBadShare = 1,      ///< Forged Shamir share revealed during a recovery.
  kEquivocation = 2,  ///< Two conflicting signed submissions for one round.
  kNormViolation = 3, ///< Unmasked update exceeds the agreed norm bound.
};

/// Retires `owner` in `round` with its revealed DH private key: writes
/// `dropped/<round>/<owner>` (the 32-byte key) and `retired/<owner>`
/// (u64 round ‖ 32-byte key). Later rounds read the retirement to count
/// the owner as accounted for and to cancel the residual masks survivors
/// still generate against it.
void RetireOwner(chain::ContractState* state, uint64_t round, uint32_t owner,
                 const crypto::UInt256& key);

/// Convicts `owner` in `round`: deletes its update of the round, retires
/// it (`RetireOwner`) and writes `slashed/<owner>` (u64 round ‖ u8 kind).
void ConvictOwner(chain::ContractState* state, uint64_t round,
                  uint32_t owner, const crypto::UInt256& key, SlashKind kind);

/// A `retired/<owner>` record: the retiring round and revealed DH key.
struct Retirement {
  uint64_t round = 0;
  crypto::UInt256 key;
};

/// Every retirement record, by owner.
Result<std::map<uint32_t, Retirement>> GetRetirements(
    const chain::ContractState& state);

/// Owners retired before `round`, with their revealed DH private keys (a
/// retirement in `round` itself is counted by that round's dropouts).
Result<std::map<uint32_t, crypto::UInt256>> RetiredBefore(
    const chain::ContractState& state, uint64_t round);

/// Every conviction record's slash round, by owner. An evidence kind
/// outside `SlashKind` is Corruption.
Result<std::map<uint32_t, uint64_t>> GetConvictionRounds(
    const chain::ContractState& state);

}  // namespace bcfl::core
