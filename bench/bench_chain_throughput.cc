// Ablation B (future-work Sect. VI): blockchain bottleneck analysis —
// transaction throughput and per-block consensus latency versus miner
// count and update payload size. Every proposal/vote crosses the
// simulated P2P network, so the reported simulated latency reflects the
// message complexity (leader broadcast + validator votes), while the
// wall-clock column reflects re-execution cost: the engines validate
// each proposal on a pool of hardware-thread size, as a session does.
//
// This binary is also the equivalence gate for the optimized Schnorr
// path, in the same mold as bench_kernels: Montgomery Schnorr
// verification must agree with the seed's reference::SchnorrVerify, or
// the process exits non-zero. It drops BENCH_chain.json in the working
// directory, including a Schnorr-verify microbench (optimized vs
// reference) that CI asserts on.
//
// Flags: --quick  lower repetition counts and a reduced sweep (CI smoke
// mode).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "chain/consensus.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "crypto/schnorr.h"
#include "obs/exporter.h"
#include "obs/json_writer.h"

namespace {

using namespace bcfl;
using namespace bcfl::chain;
using bcfl::obs::JsonWriter;

/// Stores opaque payload blobs — stands in for masked model updates of a
/// given size without ML cost dominating the measurement.
class BlobContract : public SmartContract {
 public:
  std::string name() const override { return "blob"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    state->Put("blob/" + std::to_string(tx.nonce()), tx.payload());
    return Status::OK();
  }
};

struct RunStats {
  double wall_seconds;
  uint64_t sim_micros;
  size_t blocks;
  size_t txs;
  uint64_t messages;
};

RunStats RunWorkload(ThreadPool* pool, size_t miners, size_t num_txs,
                     size_t payload_bytes, size_t max_txs_per_block) {
  crypto::Schnorr scheme;
  Xoshiro256 rng(7);
  auto key = scheme.GenerateKeyPair(&rng);

  auto host = std::make_shared<ContractHost>(scheme);
  (void)host->Register(std::make_shared<BlobContract>());

  ConsensusConfig config;
  config.leader_seed = 3;
  config.max_txs_per_block = max_txs_per_block;
  config.network.min_latency_us = 500;
  config.network.max_latency_us = 5000;
  ConsensusEngine engine(miners, host, config, pool);

  for (size_t i = 0; i < num_txs; ++i) {
    (void)engine.SubmitTransaction(Transaction::Sign(
        {.contract = "blob",
         .method = "put",
         .payload = Bytes(payload_bytes, static_cast<uint8_t>(i)),
         .nonce = i},
        scheme, key, &rng));
  }

  Stopwatch timer;
  auto results = engine.RunUntilDrained(10000).value();
  RunStats stats;
  stats.wall_seconds = timer.ElapsedSeconds();
  stats.sim_micros = engine.network().clock().NowMicros();
  stats.blocks = results.size();
  stats.txs = engine.CanonicalChain().TotalTransactions();
  stats.messages = engine.network().stats().messages_sent;
  return stats;
}

// ---- Equivalence gates ---------------------------------------------------

/// Optimized Schnorr::Verify must agree with the seed's scalar
/// reference::SchnorrVerify on valid, message-tampered and
/// signature-tampered inputs.
bool CheckSchnorrReferenceEquivalence(Xoshiro256* rng) {
  crypto::Schnorr scheme;
  auto key = scheme.GenerateKeyPair(rng);
  for (int i = 0; i < 8; ++i) {
    Bytes msg(64 + static_cast<size_t>(i) * 13);
    for (auto& b : msg) b = static_cast<uint8_t>(rng->Next());
    auto sig = scheme.Sign(key, msg, rng);
    bool opt = scheme.Verify(key.public_key, msg, sig);
    bool ref = crypto::reference::SchnorrVerify(scheme.params(),
                                                key.public_key, msg, sig);
    if (!opt || !ref) {
      std::printf("  !! valid signature rejected (opt=%d ref=%d)\n", opt,
                  ref);
      return false;
    }
    Bytes tampered = msg;
    tampered[i % tampered.size()] ^= 0x40;
    if (scheme.Verify(key.public_key, tampered, sig) ||
        crypto::reference::SchnorrVerify(scheme.params(), key.public_key,
                                         tampered, sig)) {
      std::printf("  !! tampered message verified\n");
      return false;
    }
    Bytes sig_bytes = sig.ToBytes();
    sig_bytes[7 + i] ^= 0x01;
    auto bad_sig = crypto::SchnorrSignature::FromBytes(sig_bytes);
    if (bad_sig.ok() &&
        (scheme.Verify(key.public_key, msg, *bad_sig) !=
         crypto::reference::SchnorrVerify(scheme.params(), key.public_key,
                                          msg, *bad_sig))) {
      std::printf("  !! paths disagree on a tampered signature\n");
      return false;
    }
  }
  return true;
}

// ---- Sweeps --------------------------------------------------------------

void SweepRow(JsonWriter* json, size_t miners, size_t payload,
              const RunStats& s) {
  json->BeginObject();
  json->Field("miners", miners);
  json->Field("payload_bytes", payload);
  json->Field("blocks", s.blocks);
  json->Field("txs", s.txs);
  json->Field("tx_per_s", static_cast<double>(s.txs) / s.wall_seconds);
  json->Field("sim_ms_per_block", static_cast<double>(s.sim_micros) /
                                      1000.0 /
                                      static_cast<double>(s.blocks));
  json->Field("wall_ms_per_block",
              s.wall_seconds * 1000.0 / static_cast<double>(s.blocks));
  json->Field("messages", static_cast<size_t>(s.messages));
  json->EndObject();
}

void PrintRow(size_t miners, const RunStats& s) {
  std::printf("%-8zu %-8zu %-10.0f %-14.2f %-14.3f %-10llu\n", miners,
              s.blocks, static_cast<double>(s.txs) / s.wall_seconds,
              static_cast<double>(s.sim_micros) / 1000.0 /
                  static_cast<double>(s.blocks),
              s.wall_seconds * 1000.0 / static_cast<double>(s.blocks),
              static_cast<unsigned long long>(s.messages));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t hw_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  ThreadPool pool(hw_threads);

  std::printf("Ablation B: blockchain throughput and consensus latency\n");

  // ---- Equivalence gate -------------------------------------------------
  Xoshiro256 rng(11);
  struct NamedCheck {
    const char* name;
    bool ok;
  };
  const NamedCheck checks[] = {
      {"schnorr_reference", CheckSchnorrReferenceEquivalence(&rng)},
  };
  bool all_ok = true;
  std::printf("equivalence vs reference:");
  for (const NamedCheck& c : checks) {
    all_ok = all_ok && c.ok;
    std::printf(" %s=%s", c.name, c.ok ? "ok" : "FAIL");
  }
  std::printf("\n");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "chain_throughput");
  json.Field("quick", quick);
  json.Field("hardware_threads", hw_threads);
  json.Field("pool_threads", pool.num_threads());
  json.BeginObject("equivalence");
  for (const NamedCheck& c : checks) json.Field(c.name, c.ok);
  json.EndObject();
  json.Field("all_equivalent", all_ok);

  // ---- Schnorr verify microbench ---------------------------------------
  {
    crypto::Schnorr scheme;
    auto key = scheme.GenerateKeyPair(&rng);
    const size_t kPairs = 4;
    std::vector<Bytes> msgs(kPairs);
    std::vector<crypto::SchnorrSignature> sigs(kPairs);
    for (size_t i = 0; i < kPairs; ++i) {
      msgs[i] = Bytes(200, static_cast<uint8_t>(i));
      sigs[i] = scheme.Sign(key, msgs[i], &rng);
    }
    // Warm the per-key fixed-base table so the steady state is timed.
    (void)scheme.Verify(key.public_key, msgs[0], sigs[0]);
    (void)scheme.Verify(key.public_key, msgs[0], sigs[0]);
    const size_t reps = quick ? 20 : 200;
    Stopwatch opt_timer;
    for (size_t r = 0; r < reps; ++r) {
      if (!scheme.Verify(key.public_key, msgs[r % kPairs],
                         sigs[r % kPairs])) {
        return 1;
      }
    }
    const double opt_s = opt_timer.ElapsedSeconds();
    Stopwatch ref_timer;
    for (size_t r = 0; r < reps; ++r) {
      if (!crypto::reference::SchnorrVerify(scheme.params(), key.public_key,
                                            msgs[r % kPairs],
                                            sigs[r % kPairs])) {
        return 1;
      }
    }
    const double ref_s = ref_timer.ElapsedSeconds();
    const double speedup = opt_s > 0 ? ref_s / opt_s : 0.0;
    std::printf("schnorr verify: ref %.1f us, opt %.1f us, %.1fx\n",
                ref_s / static_cast<double>(reps) * 1e6,
                opt_s / static_cast<double>(reps) * 1e6, speedup);
    json.BeginObject("schnorr_verify");
    json.Field("reps", reps);
    json.Field("reference_us", ref_s / static_cast<double>(reps) * 1e6);
    json.Field("optimized_us", opt_s / static_cast<double>(reps) * 1e6);
    json.Field("speedup", speedup);
    json.EndObject();
  }

  // ---- Throughput sweeps ------------------------------------------------
  std::printf("\n(50 transactions, 10 txs/block, 5.2KB payload = one masked "
              "65x10 update)\n");
  std::printf("%-8s %-8s %-10s %-14s %-14s %-10s\n", "miners", "blocks",
              "tx/s", "sim ms/block", "wall ms/blk", "messages");
  json.BeginArray("miner_sweep_5k2");
  const std::vector<size_t> sweep_miners =
      quick ? std::vector<size_t>{3, 5} : std::vector<size_t>{3, 5, 7, 9, 13};
  const size_t sweep_txs = quick ? 20 : 50;
  for (size_t miners : sweep_miners) {
    RunStats s = RunWorkload(&pool, miners, sweep_txs, 5200, 10);
    PrintRow(miners, s);
    SweepRow(&json, miners, 5200, s);
  }
  json.EndArray();

  // 64KiB payloads: the block-body size where hashing and signature
  // re-verification across N miners dominated before this engine.
  std::printf("\n64KiB payload sweep (%zu txs, 10 txs/block):\n", sweep_txs);
  std::printf("%-8s %-8s %-10s %-14s %-14s %-10s\n", "miners", "blocks",
              "tx/s", "sim ms/block", "wall ms/blk", "messages");
  json.BeginArray("miner_sweep_64k");
  const std::vector<size_t> sweep_miners_64k =
      quick ? std::vector<size_t>{5} : std::vector<size_t>{3, 5, 7, 9, 13};
  for (size_t miners : sweep_miners_64k) {
    RunStats s = RunWorkload(&pool, miners, sweep_txs, 65536, 10);
    PrintRow(miners, s);
    SweepRow(&json, miners, 65536, s);
  }
  json.EndArray();

  if (!quick) {
    std::printf("\nPayload scaling (5 miners, 30 txs, 10 txs/block):\n");
    std::printf("%-14s %-10s %-14s\n", "payload B", "tx/s", "wall ms/blk");
    json.BeginArray("payload_sweep");
    for (size_t payload : {520, 5200, 52000, 520000}) {
      RunStats s = RunWorkload(&pool, 5, 30, payload, 10);
      std::printf("%-14zu %-10.0f %-14.3f\n", payload,
                  static_cast<double>(s.txs) / s.wall_seconds,
                  s.wall_seconds * 1000.0 / static_cast<double>(s.blocks));
      SweepRow(&json, 5, payload, s);
    }
    json.EndArray();

    std::printf("\nBlock-size scaling (5 miners, 60 txs, 5.2KB payload):\n");
    std::printf("%-14s %-8s %-10s\n", "txs/block", "blocks", "tx/s");
    json.BeginArray("block_size_sweep");
    for (size_t batch : {1, 5, 15, 60}) {
      RunStats s = RunWorkload(&pool, 5, 60, 5200, batch);
      std::printf("%-14zu %-8zu %-10.0f\n", batch, s.blocks,
                  static_cast<double>(s.txs) / s.wall_seconds);
      json.BeginObject();
      json.Field("txs_per_block", batch);
      json.Field("blocks", s.blocks);
      json.Field("tx_per_s", static_cast<double>(s.txs) / s.wall_seconds);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();

  std::printf("\nShape: message count grows linearly with miner count (one\n"
              "proposal + one vote per validator). The shared verify cache\n"
              "makes the N-miner re-execution pay each signature once, each\n"
              "miner executes a block once (its commit applies the writes of\n"
              "its own trial or validation) and the validations run on the\n"
              "pool, so wall ms/blk tracks hashing + state, not N modexps.\n");

  const char* out_path = "BENCH_chain.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  bcfl::Status exported =
      bcfl::obs::ExportGlobalWithPrefix("BENCH_chain_throughput");
  if (!exported.ok()) {
    std::printf("failed to export observability artifacts: %s\n",
                exported.ToString().c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
