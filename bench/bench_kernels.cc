// Kernel-layer micro-benchmark and equivalence gate.
//
// Times the optimized compute kernels (GEMM, fused softmax-cross-entropy
// step, batched ChaCha20 keystream, mask expansion) against the
// seed-faithful reference implementations on the training-workload
// shapes, and — more importantly — *verifies* the determinism contract:
// every optimized kernel must be bit-identical to its reference. A
// mismatch makes the process exit non-zero, so CI can use this binary as
// the kernel-vs-reference smoke test.
//
// Emits BENCH_kernels.json for cross-PR trend tracking.
//
// Flags: --quick  lower repetition counts (CI smoke mode).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "crypto/chacha20.h"
#include "ml/kernels.h"
#include "obs/exporter.h"
#include "obs/json_writer.h"
#include "secureagg/mask.h"

using namespace bcfl;
using bcfl::obs::JsonWriter;
namespace kernels = bcfl::ml::kernels;

namespace {

void FillRandom(std::vector<double>* v, Xoshiro256* rng) {
  for (double& x : *v) x = rng->NextDouble() * 2.0 - 1.0;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Seconds per call, best of `reps` (after one warm-up call).
template <typename Fn>
double TimeBest(Fn&& fn, int reps) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct Shape {
  size_t m, k, n;
};

/// Shapes chosen to hit every dispatch path: empty, single row/column,
/// narrow (< 4 columns, the sub-vector tail), the fixed-width tables
/// (<= 16 columns), and wider outputs (> 16 columns, reference::Gemm).
constexpr Shape kCheckShapes[] = {
    {0, 0, 0}, {0, 5, 3},   {1, 1, 1},  {1, 7, 1},   {5, 1, 9},
    {7, 5, 1}, {3, 9, 2},   {6, 4, 3},  {37, 65, 10}, {33, 17, 29},
    {64, 64, 64}, {128, 3, 21}, {513, 5, 4},
};

bool CheckGemmEquivalence(Xoshiro256* rng) {
  for (const Shape& s : kCheckShapes) {
    std::vector<double> a(s.m * s.k), b(s.k * s.n);
    FillRandom(&a, rng);
    FillRandom(&b, rng);
    std::vector<double> ref(s.m * s.n, 0.0), opt(s.m * s.n, 1e9);
    kernels::reference::Gemm(a.data(), s.m, s.k, b.data(), s.n, ref.data());
    kernels::Gemm(a.data(), s.m, s.k, b.data(), s.n, opt.data());
    if (s.m * s.n == 0) continue;
    if (!BitEqual(ref, opt)) {
      std::printf("  !! Gemm mismatch at %zux%zux%zu\n", s.m, s.k, s.n);
      return false;
    }
  }
  return true;
}

bool CheckSoftmaxEquivalence() {
  // Extreme logits: without the row-max subtraction exp() would overflow
  // to inf and the row would collapse to NaN.
  std::vector<double> extreme = {1e4,  -1e4, 700.0, -700.0, 0.0,
                                 300.0, -2e4, 5e3,   1.5,   -0.5};
  std::vector<double> ref = extreme, opt = extreme;
  kernels::reference::SoftmaxRows(ref.data(), 2, 5);
  kernels::SoftmaxRows(opt.data(), 2, 5);
  if (!BitEqual(ref, opt)) {
    std::printf("  !! SoftmaxRows mismatch on extreme logits\n");
    return false;
  }
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 5; ++c) {
      const double p = opt[r * 5 + c];
      if (!std::isfinite(p)) {
        std::printf("  !! SoftmaxRows produced non-finite prob\n");
        return false;
      }
      sum += p;
    }
    if (std::abs(sum - 1.0) > 1e-12) {
      std::printf("  !! SoftmaxRows row sum %.17g != 1\n", sum);
      return false;
    }
  }
  return true;
}

bool CheckFusedStepEquivalence(Xoshiro256* rng) {
  const size_t rows = 123, cols = 17, classes = 10, epochs = 5;
  std::vector<double> aug(rows * cols);
  FillRandom(&aug, rng);
  std::vector<int> labels(rows);
  for (int& l : labels) {
    l = static_cast<int>(rng->NextBounded(classes));
  }
  std::vector<double> w_ref(cols * classes, 0.0), w_opt(cols * classes, 0.0);
  kernels::FusedStepScratch scratch;
  for (size_t e = 0; e < epochs; ++e) {
    const double loss_ref = kernels::reference::FusedSoftmaxCeStep(
        aug.data(), rows, cols, labels.data(), classes, 0.05, 1e-4,
        w_ref.data());
    const double loss_opt = kernels::FusedSoftmaxCeStep(
        aug.data(), rows, cols, labels.data(), classes, 0.05, 1e-4,
        w_opt.data(), &scratch);
    if (loss_ref != loss_opt) {
      std::printf("  !! fused-step loss diverged at epoch %zu\n", e);
      return false;
    }
  }
  if (!BitEqual(w_ref, w_opt)) {
    std::printf("  !! fused-step weights diverged after %zu epochs\n", epochs);
    return false;
  }
  return true;
}

bool CheckChaChaBatched() {
  std::array<uint8_t, 32> key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, 12> nonce{};
  nonce[0] = 0x4a;
  // Batched whole blocks vs one byte at a time (forces the buffered
  // path); also an unaligned size so drain + batch + tail all run.
  for (size_t size : {size_t{64 * 37 + 13}, size_t{200}, size_t{64}}) {
    crypto::ChaCha20 batched(key, nonce), serial(key, nonce);
    std::vector<uint8_t> out_b(size), out_s(size);
    batched.Keystream(out_b.data(), size);
    for (size_t i = 0; i < size; ++i) serial.Keystream(&out_s[i], 1);
    if (out_b != out_s) {
      std::printf("  !! batched ChaCha20 keystream diverged (size %zu)\n",
                  size);
      return false;
    }
  }
  // ExpandMaskInto must equal the per-word NextU64 expansion it replaced.
  const uint64_t round = 3;
  std::vector<uint64_t> fast;
  secureagg::ExpandMaskInto(key, round, 1001, &fast);
  std::array<uint8_t, 12> mask_nonce{};
  for (int i = 0; i < 8; ++i) {
    mask_nonce[static_cast<size_t>(i)] = static_cast<uint8_t>(round >> (8 * i));
  }
  mask_nonce[8] = 0x01;
  crypto::ChaCha20 cipher(key, mask_nonce);
  for (size_t i = 0; i < fast.size(); ++i) {
    if (fast[i] != cipher.NextU64()) {
      std::printf("  !! ExpandMaskInto diverged from per-word expansion at "
                  "%zu\n",
                  i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int reps = quick ? 3 : 20;

  Xoshiro256 rng(42);
  std::printf("Kernel bench (path: %s%s)\n", kernels::ActivePath(),
              quick ? ", quick" : "");

  // ---- Equivalence gate -------------------------------------------------
  struct NamedCheck {
    const char* name;
    bool ok;
  };
  const NamedCheck checks[] = {
      {"gemm", CheckGemmEquivalence(&rng)},
      {"softmax_rows", CheckSoftmaxEquivalence()},
      {"fused_step", CheckFusedStepEquivalence(&rng)},
      {"chacha20_batched", CheckChaChaBatched()},
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
  json.Field("bench", "kernels");
  json.Field("quick", quick);
  json.Field("kernel_path", kernels::ActivePath());
  json.Field("hardware_threads",
             std::max<size_t>(1, std::thread::hardware_concurrency()));
  json.BeginObject("equivalence");
  for (const NamedCheck& c : checks) json.Field(c.name, c.ok);
  json.EndObject();
  json.Field("all_equivalent", all_ok);

  // ---- GEMM on the training shape --------------------------------------
  {
    // The shape every coalition retrain runs: augmented digits features
    // (4496 x 65) times the weight matrix (65 x 10).
    const size_t m = 4496, k = 65, n = 10;
    std::vector<double> a(m * k), b(k * n), out(m * n);
    FillRandom(&a, &rng);
    FillRandom(&b, &rng);
    const double flops = 2.0 * static_cast<double>(m * k * n);
    const double ref_s = TimeBest(
        [&] {
          kernels::reference::Gemm(a.data(), m, k, b.data(), n, out.data());
        },
        reps);
    const double opt_s = TimeBest(
        [&] { kernels::Gemm(a.data(), m, k, b.data(), n, out.data()); },
        reps);
    std::printf("gemm %zux%zux%zu: ref %.3f ms (%.2f GF/s), opt %.3f ms "
                "(%.2f GF/s), %.2fx\n",
                m, k, n, ref_s * 1e3, flops / ref_s * 1e-9, opt_s * 1e3,
                flops / opt_s * 1e-9, ref_s / opt_s);
    json.BeginObject("gemm");
    json.Field("m", m);
    json.Field("k", k);
    json.Field("n", n);
    json.Field("ref_gflops", flops / ref_s * 1e-9);
    json.Field("opt_gflops", flops / opt_s * 1e-9);
    json.Field("speedup", ref_s / opt_s);
    json.EndObject();
  }

  // ---- Fused training step ---------------------------------------------
  {
    const size_t rows = 4496, cols = 65, classes = 10;
    std::vector<double> aug(rows * cols);
    FillRandom(&aug, &rng);
    std::vector<int> labels(rows);
    for (int& l : labels) l = static_cast<int>(rng.NextBounded(classes));
    std::vector<double> w_ref(cols * classes, 0.0),
        w_opt(cols * classes, 0.0);
    kernels::FusedStepScratch scratch;
    const double ref_s = TimeBest(
        [&] {
          kernels::reference::FusedSoftmaxCeStep(aug.data(), rows, cols,
                                                 labels.data(), classes, 0.05,
                                                 1e-4, w_ref.data());
        },
        reps);
    const double opt_s = TimeBest(
        [&] {
          kernels::FusedSoftmaxCeStep(aug.data(), rows, cols, labels.data(),
                                      classes, 0.05, 1e-4, w_opt.data(),
                                      &scratch);
        },
        reps);
    std::printf("fused_step %zux%zu c=%zu: ref %.3f ms/epoch, opt %.3f "
                "ms/epoch, %.2fx\n",
                rows, cols, classes, ref_s * 1e3, opt_s * 1e3, ref_s / opt_s);
    json.BeginObject("fused_step");
    json.Field("rows", rows);
    json.Field("cols", cols);
    json.Field("classes", classes);
    json.Field("ref_ms_per_epoch", ref_s * 1e3);
    json.Field("opt_ms_per_epoch", opt_s * 1e3);
    json.Field("speedup", ref_s / opt_s);
    json.EndObject();
  }

  // ---- ChaCha20 keystream ----------------------------------------------
  {
    std::array<uint8_t, 32> key{};
    std::array<uint8_t, 12> nonce{};
    const size_t bytes = 520000;  // One 65000-word mask.
    std::vector<uint8_t> buf(bytes);
    crypto::ChaCha20 cipher(key, nonce);
    const double batched_s = TimeBest(
        [&] { cipher.FillBlocks(buf.data(), bytes / 64); }, reps);
    crypto::ChaCha20 word_cipher(key, nonce);
    const double serial_s = TimeBest(
        [&] {
          // The pre-batching path: one 64-bit word at a time.
          for (size_t i = 0; i < bytes / 8; ++i) {
            volatile uint64_t sink = word_cipher.NextU64();
            (void)sink;
          }
        },
        quick ? 2 : 5);
    std::printf("chacha20 520kB: per-word %.1f MB/s, batched %.1f MB/s, "
                "%.2fx\n",
                bytes / serial_s / 1e6, bytes / batched_s / 1e6,
                serial_s / batched_s);
    json.BeginObject("chacha20");
    json.Field("bytes", bytes);
    json.Field("per_word_mb_s", bytes / serial_s / 1e6);
    json.Field("batched_mb_s", bytes / batched_s / 1e6);
    json.Field("speedup", serial_s / batched_s);
    json.EndObject();
  }

  // ---- Mask expansion ---------------------------------------------------
  {
    std::array<uint8_t, 32> key{};
    key[0] = 0x7f;
    const size_t words = 65000;
    std::vector<uint64_t> mask;
    const double s = TimeBest(
        [&] {
          secureagg::ExpandMaskInto(key, 1, words, &mask);
          volatile uint64_t sink = mask[0];
          (void)sink;
        },
        reps);
    std::printf("expand_mask %zu words: %.3f ms (%.1f MB/s)\n", words,
                s * 1e3, static_cast<double>(words) * 8 / s / 1e6);
    json.BeginObject("expand_mask");
    json.Field("words", words);
    json.Field("ms", s * 1e3);
    json.Field("mb_s", static_cast<double>(words) * 8 / s / 1e6);
    json.EndObject();
  }

  json.EndObject();
  const char* out_path = "BENCH_kernels.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  Status exported = obs::ExportGlobalWithPrefix("BENCH_kernels");
  if (!exported.ok()) {
    std::printf("failed to export observability artifacts: %s\n",
                exported.ToString().c_str());
    return 1;
  }
  if (!all_ok) {
    std::printf("EQUIVALENCE FAILURE: optimized kernels diverge from "
                "reference\n");
    return 1;
  }
  return 0;
}
