#include "core/session_summary.h"

#include "common/bytes.h"
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

}  // namespace bcfl::core
