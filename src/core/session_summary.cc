#include "core/session_summary.h"

#include "common/bytes.h"
#include "core/state_keys.h"
#include "crypto/sha256.h"
#include "obs/json_writer.h"

namespace bcfl::core {

namespace {

std::string HexSha256(const ByteWriter& writer) {
  return crypto::DigestToHex(crypto::Sha256::Hash(writer.buffer()));
}

}  // namespace

std::string SessionSummary::ToJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Field("chain_tip_height", static_cast<size_t>(chain_tip_height));
  json.Field("chain_tip_hash", chain_tip_hash);
  json.Field("blocks_committed", blocks_committed);
  json.Field("transactions", transactions);
  json.Field("recover_transactions", recover_transactions);
  json.Field("submission_retries", submission_retries);
  json.Field("slash_transactions", slash_transactions);
  json.Field("sv_digest", sv_digest);
  json.Field("weights_digest", weights_digest);
  json.Field("accuracy_digest", accuracy_digest);
  json.EndObject();
  return json.str();
}

SessionSummary SummarizeSession(const chain::Blockchain& chain,
                                const BcflRunResult& result) {
  ByteWriter sv_bits;
  for (double v : result.total_sv) sv_bits.WriteDouble(v);
  for (const auto& round_sv : result.per_round_sv) {
    for (double v : round_sv) sv_bits.WriteDouble(v);
  }
  ByteWriter weight_bits;
  result.global_weights.Serialize(&weight_bits);
  ByteWriter accuracy_bits;
  for (double acc : result.round_accuracies) accuracy_bits.WriteDouble(acc);

  SessionSummary summary;
  summary.chain_tip_height = chain.Height();
  summary.chain_tip_hash = crypto::DigestToHex(chain.Tip().header.Hash());
  summary.blocks_committed = result.blocks_committed;
  summary.transactions = result.total_transactions;
  summary.recover_transactions = result.recover_transactions;
  summary.submission_retries = result.submission_retries;
  summary.slash_transactions = result.slash_transactions;
  summary.sv_digest = HexSha256(sv_bits);
  summary.weights_digest = HexSha256(weight_bits);
  summary.accuracy_digest = HexSha256(accuracy_bits);
  return summary;
}

Result<BcflRunResult> ReadRunResult(const chain::Blockchain& chain,
                                    const chain::ContractState& state) {
  BCFL_ASSIGN_OR_RETURN(const SetupParams params, LoadSetupParams(state));
  const uint32_t n = params.num_owners;
  BcflRunResult result;
  result.global_weights = ml::Matrix(params.weight_rows, params.weight_cols);
  for (uint64_t r = 0; state.Has(keys::RoundComplete(r)); ++r) {
    std::vector<double>& round_sv = result.per_round_sv.emplace_back(n);
    for (uint32_t i = 0; i < n; ++i) {
      BCFL_ASSIGN_OR_RETURN(round_sv[i], GetDouble(state, keys::RoundSv(r, i)));
    }
  }
  if (const uint64_t rounds = result.per_round_sv.size(); rounds > 0) {
    BCFL_ASSIGN_OR_RETURN(result.global_weights,
                          GetMatrix(state, keys::GlobalModel(rounds - 1)));
    result.total_sv.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      BCFL_ASSIGN_OR_RETURN(result.total_sv[i],
                            GetDouble(state, keys::TotalSv(i)));
    }
  }
  BCFL_ASSIGN_OR_RETURN(const auto retirements, GetRetirements(state));
  for (const auto& [owner, retirement] : retirements) {
    result.retired_at[owner] = retirement.round;
  }
  BCFL_ASSIGN_OR_RETURN(result.slashed_at, GetConvictionRounds(state));
  if (state.Has(keys::RewardDistributed())) {
    result.rewards.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      BCFL_ASSIGN_OR_RETURN(result.rewards[i],
                            GetU64OrZero(state, keys::RewardClaimed(i)));
    }
    BCFL_ASSIGN_OR_RETURN(result.reward_burned,
                          GetU64OrZero(state, keys::RewardBurned()));
  }
  // Every block above the setup block is the session's; each transaction
  // in it was submitted once, whether it executed or failed.
  for (uint64_t h = 2; h <= chain.Height(); ++h) {
    BCFL_ASSIGN_OR_RETURN(const chain::Block block, chain.GetBlock(h));
    result.blocks_committed++;
    result.total_transactions += block.txs.size();
    for (const chain::Transaction& tx : block.txs) {
      if (tx.contract() == "bcfl" && tx.method() == "recover") {
        result.recover_transactions++;
      } else if (tx.contract() == "slash") {
        result.slash_transactions++;
      }
    }
  }
  return result;
}

}  // namespace bcfl::core
