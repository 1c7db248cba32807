#include "ml/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/sim_clock.h"
#include "obs/metrics.h"

// The optimized kernels must stay bit-identical to the reference loops,
// which forbids contracting a*b+c into fused multiply-add. Baseline
// x86-64 and the target("avx2") clones below cannot emit FMA anyway
// (AVX2 does not imply it), and the build additionally compiles this
// file with -ffp-contract=off (see src/ml/CMakeLists.txt) so a future
// -march=native build cannot re-introduce contraction.

#if defined(__x86_64__) || defined(__i386__)
#define BCFL_KERNELS_X86 1
#else
#define BCFL_KERNELS_X86 0
#endif

#if BCFL_KERNELS_X86 && defined(__GNUC__)
#define BCFL_KERNELS_HAVE_AVX2_CLONES 1
#define BCFL_TARGET_AVX2 __attribute__((target("avx2")))
#include <immintrin.h>
#else
#define BCFL_KERNELS_HAVE_AVX2_CLONES 0
#define BCFL_TARGET_AVX2
#endif

#define BCFL_ALWAYS_INLINE inline __attribute__((always_inline))

namespace bcfl::ml::kernels {

namespace reference {

void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out) {
  // The seed's i-k-j loop, zero-skip branch included. std::fill, not
  // memset: an empty output may be a null pointer.
  std::fill(out, out + ar * bc, 0.0);
  for (size_t i = 0; i < ar; ++i) {
    const double* a_row = a + i * ac;
    double* out_row = out + i * bc;
    for (size_t k = 0; k < ac; ++k) {
      const double v = a_row[k];
      if (v == 0.0) continue;
      const double* b_row = b + k * bc;
      for (size_t j = 0; j < bc; ++j) out_row[j] += v * b_row[j];
    }
  }
}

void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out) {
  // The seed's k-i-j loop, zero-skip branch included.
  std::fill(out, out + ac * bc, 0.0);
  for (size_t k = 0; k < ar; ++k) {
    const double* a_row = a + k * ac;
    const double* b_row = b + k * bc;
    for (size_t i = 0; i < ac; ++i) {
      const double v = a_row[i];
      if (v == 0.0) continue;
      double* out_row = out + i * bc;
      for (size_t j = 0; j < bc; ++j) out_row[j] += v * b_row[j];
    }
  }
}

void Axpy(double alpha, const double* x, size_t n, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void SoftmaxRows(double* m, size_t rows, size_t cols) {
  for (size_t i = 0; i < rows; ++i) {
    double* row = m + i * cols;
    double max_logit = row[0];
    for (size_t j = 1; j < cols; ++j) {
      max_logit = std::max(max_logit, row[j]);
    }
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - max_logit);
      sum += row[j];
    }
    for (size_t j = 0; j < cols; ++j) row[j] /= sum;
  }
}

double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights) {
  if (rows == 0) return 0.0;
  const double n = static_cast<double>(rows);

  // probs = softmax(aug * W), as two unfused passes.
  std::vector<double> probs(rows * classes, 0.0);
  Gemm(aug, rows, cols, weights, classes, probs.data());
  SoftmaxRows(probs.data(), rows, classes);

  // Pre-step loss: only the label column of each row contributes (the
  // seed scanned the full one-hot matrix; the other entries were zero).
  double loss = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    loss -= std::log(
        std::max(probs[i * classes + static_cast<size_t>(labels[i])], 1e-12));
  }
  loss /= n;

  // dy = P - Y. Subtracting the zero entries of Y is bit-neutral, so
  // only the label column actually changes.
  for (size_t i = 0; i < rows; ++i) {
    probs[i * classes + static_cast<size_t>(labels[i])] -= 1.0;
  }

  // grad = aug^T * dy / n + l2 * W;  W += -lr * grad.
  std::vector<double> grad(cols * classes, 0.0);
  GemmTransA(aug, rows, cols, probs.data(), classes, grad.data());
  const double scale = 1.0 / n;
  for (double& g : grad) g *= scale;
  Axpy(l2, weights, cols * classes, grad.data());
  Axpy(-learning_rate, grad.data(), cols * classes, weights);
  return loss;
}

}  // namespace reference

namespace {

/// Row block of the fused step. The block's logits (256 x classes) stay
/// L1-resident while the feature block (~130 KB at 65 features) streams
/// from L2; 256 measured fastest end-to-end — smaller blocks pay more
/// per-block fixed cost in the gradient stage, larger ones evict the
/// logits.
constexpr size_t kRowBlock = 256;
/// GEMMs at least this many flops get timed for the GFLOP/s gauge.
constexpr double kTimedFlops = 2e6;
/// Widest output handled by the fixed-width register-accumulator cores.
constexpr size_t kMaxFixedBc = 16;

bool HasAvx2() {
#if BCFL_KERNELS_HAVE_AVX2_CLONES
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

void RecordPathOnce() {
  static const bool once = [] {
    obs::MetricsRegistry::Global()
        .GetCounter(std::string("ml.kernels.path.") + ActivePath())
        .Add();
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------------
// Cores. Each is an always_inline template instantiated twice — once with
// baseline codegen and once inside a target("avx2") wrapper — and keeps
// every accumulation in strictly ascending k-order: vectorization is
// across output columns (j) and unrolling across output rows, neither of
// which carries an accumulation.
// ---------------------------------------------------------------------------

/// out rows (i - r0) for i in [r0, r1): out_row = sum_k a[i,k] * b[k,:].
/// One output row at a time with register accumulators — the whole acc
/// array lives in vector registers, so the k-loop is a pure
/// broadcast-mul-add stream over the two row-major operands. (A 2-row
/// unroll was measured slower here: the doubled accumulator set spills.)
template <size_t BC>
BCFL_ALWAYS_INLINE void GemmRowsCore(const double* __restrict a, size_t r0,
                                     size_t r1, size_t ac,
                                     const double* __restrict b,
                                     double* __restrict out) {
  double acc[BC];
  for (size_t i = r0; i < r1; ++i) {
    const double* a_row = a + i * ac;
    for (size_t j = 0; j < BC; ++j) acc[j] = 0.0;
    for (size_t k = 0; k < ac; ++k) {
      const double v = a_row[k];
      const double* b_row = b + k * BC;
      for (size_t j = 0; j < BC; ++j) acc[j] += v * b_row[j];
    }
    double* o = out + (i - r0) * BC;
    for (size_t j = 0; j < BC; ++j) o[j] = acc[j];
  }
}

/// out[i,:] += sum_{k in [r0,r1)} a[k,i] * d[k - r0,:] for i in [0, ac).
/// Column-dot with the i-axis unrolled by four; `out` carries the prefix
/// accumulated over k < r0, so chaining calls over ascending k-blocks
/// reproduces the flat k-ascending order exactly.
template <size_t BC>
BCFL_ALWAYS_INLINE void GemmTransAAccumCore(const double* __restrict a,
                                            size_t r0, size_t r1, size_t ac,
                                            const double* __restrict d,
                                            double* __restrict out) {
  size_t i = 0;
  for (; i + 4 <= ac; i += 4) {
    double acc[4][BC];
    for (size_t r = 0; r < 4; ++r) {
      for (size_t j = 0; j < BC; ++j) acc[r][j] = out[(i + r) * BC + j];
    }
    const double* ap = a + r0 * ac + i;
    const double* dp = d;
    for (size_t k = r0; k < r1; ++k, ap += ac, dp += BC) {
      for (size_t r = 0; r < 4; ++r) {
        const double v = ap[r];
        for (size_t j = 0; j < BC; ++j) acc[r][j] += v * dp[j];
      }
    }
    for (size_t r = 0; r < 4; ++r) {
      for (size_t j = 0; j < BC; ++j) out[(i + r) * BC + j] = acc[r][j];
    }
  }
  for (; i < ac; ++i) {
    double acc[BC];
    for (size_t j = 0; j < BC; ++j) acc[j] = out[i * BC + j];
    const double* ap = a + r0 * ac + i;
    const double* dp = d;
    for (size_t k = r0; k < r1; ++k, ap += ac, dp += BC) {
      const double v = ap[0];
      for (size_t j = 0; j < BC; ++j) acc[j] += v * dp[j];
    }
    for (size_t j = 0; j < BC; ++j) out[i * BC + j] = acc[j];
  }
}

#if BCFL_KERNELS_HAVE_AVX2_CLONES

// Hand-scheduled AVX2 variants of the two GEMM cores. GCC's
// autovectorized single-row core is good, but sharing each streamed
// b/d row across two (forward) or four (transposed) output rows needs
// more live vector registers than GCC will keep — the intrinsic forms
// hold them explicitly. Per accumulator lane the operation stream is
// unchanged: broadcast a, multiply by the row, add — k strictly
// ascending, no horizontal ops, no FMA.

/// Forward rows, two output rows per b-row load. Columns decompose into
/// BC/4 ymm chunks plus an xmm pair and/or a scalar tail.
template <size_t BC>
BCFL_TARGET_AVX2 BCFL_ALWAYS_INLINE void GemmRowsIntr(
    const double* __restrict a, size_t r0, size_t r1, size_t ac,
    const double* __restrict b, double* __restrict out) {
  static_assert(BC >= 4, "scalar core covers narrow outputs");
  constexpr size_t F = BC / 4;
  constexpr size_t R = BC % 4;
  size_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const double* a0 = a + i * ac;
    const double* a1 = a0 + ac;
    __m256d acc_a[F], acc_b[F];
    for (size_t f = 0; f < F; ++f) acc_a[f] = _mm256_setzero_pd();
    for (size_t f = 0; f < F; ++f) acc_b[f] = _mm256_setzero_pd();
    [[maybe_unused]] __m128d pair_a = _mm_setzero_pd();
    [[maybe_unused]] __m128d pair_b = _mm_setzero_pd();
    [[maybe_unused]] double last_a = 0.0, last_b = 0.0;
    for (size_t k = 0; k < ac; ++k) {
      const double* br = b + k * BC;
      const double v0s = a0[k];
      const double v1s = a1[k];
      const __m256d v0 = _mm256_set1_pd(v0s);
      const __m256d v1 = _mm256_set1_pd(v1s);
      for (size_t f = 0; f < F; ++f) {
        const __m256d bv = _mm256_loadu_pd(br + 4 * f);
        acc_a[f] = _mm256_add_pd(acc_a[f], _mm256_mul_pd(v0, bv));
        acc_b[f] = _mm256_add_pd(acc_b[f], _mm256_mul_pd(v1, bv));
      }
      if constexpr (R >= 2) {
        const __m128d bv = _mm_loadu_pd(br + 4 * F);
        pair_a = _mm_add_pd(pair_a, _mm_mul_pd(_mm256_castpd256_pd128(v0), bv));
        pair_b = _mm_add_pd(pair_b, _mm_mul_pd(_mm256_castpd256_pd128(v1), bv));
      }
      if constexpr (R % 2 == 1) {
        const double bs = br[BC - 1];
        last_a += v0s * bs;
        last_b += v1s * bs;
      }
    }
    double* o = out + (i - r0) * BC;
    for (size_t f = 0; f < F; ++f) _mm256_storeu_pd(o + 4 * f, acc_a[f]);
    for (size_t f = 0; f < F; ++f) _mm256_storeu_pd(o + BC + 4 * f, acc_b[f]);
    if constexpr (R >= 2) {
      _mm_storeu_pd(o + 4 * F, pair_a);
      _mm_storeu_pd(o + BC + 4 * F, pair_b);
    }
    if constexpr (R % 2 == 1) {
      o[BC - 1] = last_a;
      o[2 * BC - 1] = last_b;
    }
  }
  for (; i < r1; ++i) {
    const double* a0 = a + i * ac;
    __m256d acc_a[F];
    for (size_t f = 0; f < F; ++f) acc_a[f] = _mm256_setzero_pd();
    [[maybe_unused]] __m128d pair_a = _mm_setzero_pd();
    [[maybe_unused]] double last_a = 0.0;
    for (size_t k = 0; k < ac; ++k) {
      const double* br = b + k * BC;
      const double v0s = a0[k];
      const __m256d v0 = _mm256_set1_pd(v0s);
      for (size_t f = 0; f < F; ++f) {
        acc_a[f] = _mm256_add_pd(
            acc_a[f], _mm256_mul_pd(v0, _mm256_loadu_pd(br + 4 * f)));
      }
      if constexpr (R >= 2) {
        pair_a = _mm_add_pd(pair_a, _mm_mul_pd(_mm256_castpd256_pd128(v0),
                                               _mm_loadu_pd(br + 4 * F)));
      }
      if constexpr (R % 2 == 1) last_a += v0s * br[BC - 1];
    }
    double* o = out + (i - r0) * BC;
    for (size_t f = 0; f < F; ++f) _mm256_storeu_pd(o + 4 * f, acc_a[f]);
    if constexpr (R >= 2) _mm_storeu_pd(o + 4 * F, pair_a);
    if constexpr (R % 2 == 1) o[BC - 1] = last_a;
  }
}

/// Transposed-accumulate, IU output rows per d-row load (4 while the
/// accumulator set fits the 16 ymm registers, else 2).
template <size_t BC>
BCFL_TARGET_AVX2 BCFL_ALWAYS_INLINE void GemmTransAAccumIntr(
    const double* __restrict a, size_t r0, size_t r1, size_t ac,
    const double* __restrict d, double* __restrict out) {
  static_assert(BC >= 4, "scalar core covers narrow outputs");
  constexpr size_t F = BC / 4;
  constexpr size_t R = BC % 4;
  constexpr size_t IU = BC <= 12 ? 4 : 2;
  size_t i = 0;
  for (; i + IU <= ac; i += IU) {
    __m256d acc[IU][F];
    [[maybe_unused]] __m128d pair[IU];
    [[maybe_unused]] double last[IU];
    for (size_t r = 0; r < IU; ++r) {
      double* orow = out + (i + r) * BC;
      for (size_t f = 0; f < F; ++f) acc[r][f] = _mm256_loadu_pd(orow + 4 * f);
      if constexpr (R >= 2) pair[r] = _mm_loadu_pd(orow + 4 * F);
      if constexpr (R % 2 == 1) last[r] = orow[BC - 1];
    }
    const double* ap = a + r0 * ac + i;
    const double* dp = d;
    for (size_t k = r0; k < r1; ++k, ap += ac, dp += BC) {
      __m256d dv[F];
      for (size_t f = 0; f < F; ++f) dv[f] = _mm256_loadu_pd(dp + 4 * f);
      [[maybe_unused]] __m128d dx;
      [[maybe_unused]] double ds;
      if constexpr (R >= 2) dx = _mm_loadu_pd(dp + 4 * F);
      if constexpr (R % 2 == 1) ds = dp[BC - 1];
      for (size_t r = 0; r < IU; ++r) {
        const double vs = ap[r];
        const __m256d v = _mm256_set1_pd(vs);
        for (size_t f = 0; f < F; ++f) {
          acc[r][f] = _mm256_add_pd(acc[r][f], _mm256_mul_pd(v, dv[f]));
        }
        if constexpr (R >= 2) {
          pair[r] = _mm_add_pd(pair[r],
                               _mm_mul_pd(_mm256_castpd256_pd128(v), dx));
        }
        if constexpr (R % 2 == 1) last[r] += vs * ds;
      }
    }
    for (size_t r = 0; r < IU; ++r) {
      double* orow = out + (i + r) * BC;
      for (size_t f = 0; f < F; ++f) _mm256_storeu_pd(orow + 4 * f, acc[r][f]);
      if constexpr (R >= 2) _mm_storeu_pd(orow + 4 * F, pair[r]);
      if constexpr (R % 2 == 1) orow[BC - 1] = last[r];
    }
  }
  for (; i < ac; ++i) {
    double* orow = out + i * BC;
    __m256d acc[F];
    for (size_t f = 0; f < F; ++f) acc[f] = _mm256_loadu_pd(orow + 4 * f);
    [[maybe_unused]] __m128d pair = _mm_setzero_pd();
    [[maybe_unused]] double last = 0.0;
    if constexpr (R >= 2) pair = _mm_loadu_pd(orow + 4 * F);
    if constexpr (R % 2 == 1) last = orow[BC - 1];
    const double* ap = a + r0 * ac + i;
    const double* dp = d;
    for (size_t k = r0; k < r1; ++k, ap += ac, dp += BC) {
      const double vs = ap[0];
      const __m256d v = _mm256_set1_pd(vs);
      for (size_t f = 0; f < F; ++f) {
        acc[f] = _mm256_add_pd(acc[f],
                               _mm256_mul_pd(v, _mm256_loadu_pd(dp + 4 * f)));
      }
      if constexpr (R >= 2) {
        pair = _mm_add_pd(pair, _mm_mul_pd(_mm256_castpd256_pd128(v),
                                           _mm_loadu_pd(dp + 4 * F)));
      }
      if constexpr (R % 2 == 1) last += vs * dp[BC - 1];
    }
    for (size_t f = 0; f < F; ++f) _mm256_storeu_pd(orow + 4 * f, acc[f]);
    if constexpr (R >= 2) _mm_storeu_pd(orow + 4 * F, pair);
    if constexpr (R % 2 == 1) orow[BC - 1] = last;
  }
}

#endif  // BCFL_KERNELS_HAVE_AVX2_CLONES

/// Staged stable-softmax epilogue over one logits block: row max
/// subtraction, one tight exp pass, then per row the sum, divide, loss
/// contribution and dy = P - Y (label column only; the zero entries of Y
/// are bit-neutral). Adds each row's loss term in row-ascending order.
template <size_t BC>
BCFL_ALWAYS_INLINE void FusedSoftmaxEpilogue(double* __restrict logits,
                                             size_t block,
                                             const int* __restrict labels,
                                             double* loss) {
  for (size_t i = 0; i < block; ++i) {
    double* row = logits + i * BC;
    double max_logit = row[0];
    for (size_t j = 1; j < BC; ++j) max_logit = std::max(max_logit, row[j]);
    for (size_t j = 0; j < BC; ++j) row[j] -= max_logit;
  }
  for (size_t t = 0; t < block * BC; ++t) logits[t] = std::exp(logits[t]);
  for (size_t i = 0; i < block; ++i) {
    double* row = logits + i * BC;
    double sum = 0.0;
    for (size_t j = 0; j < BC; ++j) sum += row[j];
    for (size_t j = 0; j < BC; ++j) row[j] /= sum;
    const size_t label = static_cast<size_t>(labels[i]);
    *loss -= std::log(std::max(row[label], 1e-12));
    row[label] -= 1.0;
  }
}

/// Final fused-step stage: W += -lr * (grad/n + l2*W), element-wise in
/// the reference order (scale by 1/n, add l2 term, axpy into weights).
template <size_t BC>
BCFL_ALWAYS_INLINE void FusedWeightUpdate(const double* __restrict grad,
                                          size_t cols, double n,
                                          double learning_rate, double l2,
                                          double* __restrict weights) {
  const double scale = 1.0 / n;
  const double neg_lr = -learning_rate;
  for (size_t t = 0; t < cols * BC; ++t) {
    double g = grad[t] * scale;
    g += l2 * weights[t];
    weights[t] += neg_lr * g;
  }
}

/// One fused training step over `aug` in kRowBlock-row blocks. Per block:
/// logits (register-accumulator GEMM), the softmax epilogue, then the
/// block's gradient contribution via the column-dot core. The gradient
/// accumulator is a single buffer updated block-sequentially in
/// ascending k, so every element sees the flat k-ascending order of the
/// reference GemmTransA.
template <size_t BC>
BCFL_ALWAYS_INLINE double FusedStepCore(const double* __restrict aug,
                                        size_t rows, size_t cols,
                                        const int* __restrict labels,
                                        double learning_rate, double l2,
                                        double* __restrict weights,
                                        double* __restrict logits,
                                        double* __restrict grad) {
  std::memset(grad, 0, cols * BC * sizeof(double));
  double loss = 0.0;
  for (size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const size_t r1 = std::min(rows, r0 + kRowBlock);
    GemmRowsCore<BC>(aug, r0, r1, cols, weights, logits);
    FusedSoftmaxEpilogue<BC>(logits, r1 - r0, labels + r0, &loss);
    GemmTransAAccumCore<BC>(aug, r0, r1, cols, logits, grad);
  }
  const double n = static_cast<double>(rows);
  loss /= n;
  FusedWeightUpdate<BC>(grad, cols, n, learning_rate, l2, weights);
  return loss;
}

#if BCFL_KERNELS_HAVE_AVX2_CLONES
/// FusedStepCore with the intrinsic GEMM cores; same block structure and
/// per-element operation order.
template <size_t BC>
BCFL_TARGET_AVX2 BCFL_ALWAYS_INLINE double FusedStepCoreIntr(
    const double* __restrict aug, size_t rows, size_t cols,
    const int* __restrict labels, double learning_rate, double l2,
    double* __restrict weights, double* __restrict logits,
    double* __restrict grad) {
  std::memset(grad, 0, cols * BC * sizeof(double));
  double loss = 0.0;
  for (size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const size_t r1 = std::min(rows, r0 + kRowBlock);
    GemmRowsIntr<BC>(aug, r0, r1, cols, weights, logits);
    FusedSoftmaxEpilogue<BC>(logits, r1 - r0, labels + r0, &loss);
    GemmTransAAccumIntr<BC>(aug, r0, r1, cols, logits, grad);
  }
  const double n = static_cast<double>(rows);
  loss /= n;
  FusedWeightUpdate<BC>(grad, cols, n, learning_rate, l2, weights);
  return loss;
}
#endif  // BCFL_KERNELS_HAVE_AVX2_CLONES

// ---------------------------------------------------------------------------
// Instantiation + dispatch. One baseline and one AVX2 clone per core. The
// AVX2 clones rely on target("avx2") NOT enabling FMA, and the file-level
// -ffp-contract=off forbids contraction, so lane arithmetic is identical
// to the baseline everywhere.
// ---------------------------------------------------------------------------

using RowsFn = void (*)(const double*, size_t, size_t, const double*,
                        double*);
using FusedFn = double (*)(const double*, size_t, size_t, const int*, double,
                           double, double*, double*, double*);

template <size_t BC>
void GemmRowsBase(const double* a, size_t ar, size_t ac, const double* b,
                  double* out) {
  GemmRowsCore<BC>(a, 0, ar, ac, b, out);
}
template <size_t BC>
double FusedStepBase(const double* aug, size_t rows, size_t cols,
                     const int* labels, double lr, double l2, double* weights,
                     double* logits, double* grad) {
  return FusedStepCore<BC>(aug, rows, cols, labels, lr, l2, weights, logits,
                           grad);
}

#if BCFL_KERNELS_HAVE_AVX2_CLONES
template <size_t BC>
BCFL_TARGET_AVX2 void GemmRowsAvx2(const double* a, size_t ar, size_t ac,
                                   const double* b, double* out) {
  if constexpr (BC >= 4) {
    GemmRowsIntr<BC>(a, 0, ar, ac, b, out);
  } else {
    GemmRowsCore<BC>(a, 0, ar, ac, b, out);
  }
}
template <size_t BC>
BCFL_TARGET_AVX2 double FusedStepAvx2(const double* aug, size_t rows,
                                      size_t cols, const int* labels,
                                      double lr, double l2, double* weights,
                                      double* logits, double* grad) {
  if constexpr (BC >= 4) {
    return FusedStepCoreIntr<BC>(aug, rows, cols, labels, lr, l2, weights,
                                 logits, grad);
  } else {
    return FusedStepCore<BC>(aug, rows, cols, labels, lr, l2, weights, logits,
                             grad);
  }
}
#endif  // BCFL_KERNELS_HAVE_AVX2_CLONES

template <template <size_t> class Fn, typename Ptr, size_t... I>
constexpr std::array<Ptr, sizeof...(I)> MakeTable(std::index_sequence<I...>) {
  return {Fn<I + 1>::value...};
}

// Wrap the function templates so they can be passed as template template
// arguments with a uniform `value` member.
template <size_t BC>
struct RowsBaseHolder {
  static constexpr RowsFn value = &GemmRowsBase<BC>;
};
template <size_t BC>
struct FusedBaseHolder {
  static constexpr FusedFn value = &FusedStepBase<BC>;
};
#if BCFL_KERNELS_HAVE_AVX2_CLONES
template <size_t BC>
struct RowsAvx2Holder {
  static constexpr RowsFn value = &GemmRowsAvx2<BC>;
};
template <size_t BC>
struct FusedAvx2Holder {
  static constexpr FusedFn value = &FusedStepAvx2<BC>;
};
#endif

constexpr auto kRowsBase = MakeTable<RowsBaseHolder, RowsFn>(
    std::make_index_sequence<kMaxFixedBc>{});
constexpr auto kFusedBase = MakeTable<FusedBaseHolder, FusedFn>(
    std::make_index_sequence<kMaxFixedBc>{});
#if BCFL_KERNELS_HAVE_AVX2_CLONES
constexpr auto kRowsAvx2 = MakeTable<RowsAvx2Holder, RowsFn>(
    std::make_index_sequence<kMaxFixedBc>{});
constexpr auto kFusedAvx2 = MakeTable<FusedAvx2Holder, FusedFn>(
    std::make_index_sequence<kMaxFixedBc>{});
#endif

RowsFn PickRows(size_t bc) {
#if BCFL_KERNELS_HAVE_AVX2_CLONES
  if (HasAvx2()) return kRowsAvx2[bc - 1];
#endif
  return kRowsBase[bc - 1];
}
FusedFn PickFused(size_t classes) {
#if BCFL_KERNELS_HAVE_AVX2_CLONES
  if (HasAvx2()) return kFusedAvx2[classes - 1];
#endif
  return kFusedBase[classes - 1];
}

}  // namespace

const char* ActivePath() { return HasAvx2() ? "avx2" : "scalar"; }

void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out) {
  if (ar == 0 || bc == 0) return;
  RecordPathOnce();
  static auto& calls =
      obs::MetricsRegistry::Global().GetCounter("ml.kernels.gemm_calls");
  static auto& gflops_gauge =
      obs::MetricsRegistry::Global().GetGauge("ml.kernels.gemm_gflops");
  calls.Add();

  const double flops = 2.0 * static_cast<double>(ar) *
                       static_cast<double>(ac) * static_cast<double>(bc);
  Stopwatch timer;
  if (bc <= kMaxFixedBc) {
    PickRows(bc)(a, ar, ac, b, out);
  } else {
    reference::Gemm(a, ar, ac, b, bc, out);
  }
  if (flops >= kTimedFlops) {
    const double s = timer.ElapsedSeconds();
    if (s > 0) gflops_gauge.Set(flops / s * 1e-9);
  }
}

void SoftmaxRows(double* m, size_t rows, size_t cols) {
  if (rows == 0 || cols == 0) return;
  // Same per-element operations as the reference, staged into three
  // passes so the max/subtract and sum/divide loops vectorize and the
  // exp calls run back to back.
  for (size_t i = 0; i < rows; ++i) {
    double* row = m + i * cols;
    double max_logit = row[0];
    for (size_t j = 1; j < cols; ++j) max_logit = std::max(max_logit, row[j]);
    for (size_t j = 0; j < cols; ++j) row[j] -= max_logit;
  }
  for (size_t t = 0; t < rows * cols; ++t) m[t] = std::exp(m[t]);
  for (size_t i = 0; i < rows; ++i) {
    double* row = m + i * cols;
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) sum += row[j];
    for (size_t j = 0; j < cols; ++j) row[j] /= sum;
  }
}

double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights,
                          FusedStepScratch* scratch) {
  if (rows == 0) return 0.0;
  if (classes == 0 || classes > kMaxFixedBc || scratch == nullptr) {
    return reference::FusedSoftmaxCeStep(aug, rows, cols, labels, classes,
                                         learning_rate, l2, weights);
  }
  RecordPathOnce();
  scratch->logits.resize(kRowBlock * classes);
  scratch->grad.resize(cols * classes);
  return PickFused(classes)(aug, rows, cols, labels, learning_rate, l2,
                            weights, scratch->logits.data(),
                            scratch->grad.data());
}

}  // namespace bcfl::ml::kernels
