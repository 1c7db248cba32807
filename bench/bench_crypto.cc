// Ablation C: micro-benchmarks of the from-scratch crypto primitives the
// protocol is built on. These bound the per-round client cost (masking,
// signing) and the per-block miner cost (hash, verify).

#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/dh.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"

namespace {

using namespace bcfl;
using namespace bcfl::crypto;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// 5,208 bytes is the weight serialization behind each CachingUtility key.
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(5208)->Arg(65536);

// Each compressor alone over whole blocks, so both paths are measured on
// one machine whichever Sha256 dispatches to. 82 blocks is the padded
// 5,208-byte message.
template <void (*Blocks)(uint32_t*, const uint8_t*, size_t)>
void BM_Sha256Blocks(benchmark::State& state) {
  if (Blocks == Sha256BlocksShaNi && std::string(Sha256Path()) != "sha_ni") {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  const size_t blocks = static_cast<size_t>(state.range(0));
  Bytes data(64 * blocks, 0xab);
  uint32_t digest_state[8] = {};
  for (auto _ : state) {
    Blocks(digest_state, data.data(), blocks);
    benchmark::DoNotOptimize(digest_state);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          state.range(0));
}
BENCHMARK_TEMPLATE(BM_Sha256Blocks, Sha256BlocksScalar)->Arg(1)->Arg(82);
BENCHMARK_TEMPLATE(BM_Sha256Blocks, Sha256BlocksShaNi)->Arg(1)->Arg(82);

void BM_ChaCha20Keystream(benchmark::State& state) {
  std::array<uint8_t, 32> key{};
  std::array<uint8_t, 12> nonce{};
  Bytes out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ChaCha20 cipher(key, nonce);
    cipher.Keystream(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(1024)->Arg(65536);

void BM_ModPow(benchmark::State& state) {
  GroupParams params = GroupParams::Default();
  Xoshiro256 rng(1);
  UInt256 exponent(rng.Next(), rng.Next(), rng.Next(), rng.Next() >> 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(params.g.ModPow(exponent, params.p));
  }
}
BENCHMARK(BM_ModPow);

void BM_DhSharedSecret(benchmark::State& state) {
  DiffieHellman dh;
  Xoshiro256 rng(2);
  DhKeyPair alice = dh.GenerateKeyPair(&rng);
  DhKeyPair bob = dh.GenerateKeyPair(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dh.ComputeShared(alice.private_key, bob.public_key));
  }
}
BENCHMARK(BM_DhSharedSecret);

void BM_SchnorrSign(benchmark::State& state) {
  Schnorr scheme;
  Xoshiro256 rng(3);
  SchnorrKeyPair key = scheme.GenerateKeyPair(&rng);
  Bytes msg(256, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Sign(key, msg, &rng));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Schnorr scheme;
  Xoshiro256 rng(4);
  SchnorrKeyPair key = scheme.GenerateKeyPair(&rng);
  Bytes msg(256, 0x5a);
  SchnorrSignature sig = scheme.Sign(key, msg, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Verify(key.public_key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_ShamirSplit(benchmark::State& state) {
  auto scheme = ShamirSecretSharing::Create(5, 9).value();
  Xoshiro256 rng(5);
  Bytes secret(32, 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Split(secret, &rng));
  }
}
BENCHMARK(BM_ShamirSplit);

void BM_ShamirReconstruct(benchmark::State& state) {
  auto scheme = ShamirSecretSharing::Create(5, 9).value();
  Xoshiro256 rng(6);
  Bytes secret(32, 0x77);
  auto shares = scheme.Split(secret, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Reconstruct(shares, secret.size()));
  }
}
BENCHMARK(BM_ShamirReconstruct);

}  // namespace

BENCHMARK_MAIN();
