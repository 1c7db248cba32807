#pragma once

#include <cstddef>
#include <vector>

namespace bcfl {
class ThreadPool;
}

namespace bcfl::ml::kernels {

// Compute kernels behind Matrix::MatMul / TransposedMatMul / Transpose
// and the fused logistic-regression training step. All buffers are dense
// row-major doubles; output buffers must not alias inputs.
//
// Determinism contract
// --------------------
// Every kernel accumulates each output element in strictly ascending
// k-order — the same per-element operation sequence as the seed's scalar
// triple loops — so the optimized kernels, the reference kernels, and
// any thread count all produce bit-identical results on finite inputs.
// Concretely:
//   * the optimized GEMMs vectorize across *output columns* and unroll
//     across *output rows*; neither axis carries an accumulation, so no
//     floating-point operation is reordered;
//   * the row-parallel path partitions *output rows* into fixed-size
//     chunks (independent of the pool size), and rows are independent;
//   * the AVX2 variants are compiled without FMA, so no multiply-add is
//     contracted (the build also pins -ffp-contract=off for this file);
//   * the only arithmetic difference from the seed loops is dropping the
//     `if (a == 0.0) continue;` branch, which is bit-neutral: the
//     accumulator starts at +0.0 and adding a ±0.0 product leaves every
//     finite accumulator value unchanged.

/// Seed-faithful scalar kernels, always compiled: the equivalence tests
/// and bench_kernels check the optimized entry points against them.
namespace reference {

/// out[i,j] = sum_k a[i,k]*b[k,j]; a is ar x ac, b is ac x bc.
void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);

/// out[i,j] = sum_k a[k,i]*b[k,j] (i.e. a^T * b); a is ar x ac, b is
/// ar x bc, out is ac x bc.
void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out);

/// out (ac x ar) = a^T; a is ar x ac.
void Transpose(const double* a, size_t ar, size_t ac, double* out);

/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, size_t n, double* y);

/// Numerically stable in-place row softmax (subtracts the row max).
void SoftmaxRows(double* m, size_t rows, size_t cols);

/// One full-batch softmax-regression step, as the literal seed sequence
/// (probs = softmax(aug*W); loss; grad = aug^T(P-Y)/n + l2*W;
/// W -= lr*grad). `weights` is cols x classes. Returns the pre-step
/// loss. Preconditions (checked by the caller): rows > 0, labels in
/// [0, classes).
double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights);

}  // namespace reference

/// Reusable buffers for the fused step: one row-block of logits plus the
/// gradient accumulator. Training loops hold one of these across epochs
/// so the hot path does no per-epoch allocation.
struct FusedStepScratch {
  std::vector<double> logits;
  std::vector<double> grad;
};

void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);
void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out);
void Transpose(const double* a, size_t ar, size_t ac, double* out);
void Axpy(double alpha, const double* x, size_t n, double* y);
void SoftmaxRows(double* m, size_t rows, size_t cols);

/// Fused softmax–cross-entropy–gradient step: streams `aug` once per
/// epoch in L1-sized row blocks — logits, stable softmax, loss and the
/// gradient contribution of the block are produced in one pass, and the
/// per-element accumulation order (k strictly ascending) is exactly the
/// reference sequence, so the result is bit-identical to
/// reference::FusedSoftmaxCeStep. `scratch` may be reused across calls.
double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights,
                          FusedStepScratch* scratch);

/// Pool used by Gemm/GemmTransA for row-partitioned parallelism above a
/// size threshold (nullptr = always serial). Partitioning is by output
/// rows in fixed-size chunks, so results are bit-identical for every
/// pool size; calls issued from inside a pool worker stay serial (see
/// ThreadPool::InWorkerThread).
void SetParallelPool(ThreadPool* pool);
ThreadPool* ParallelPool();

/// "scalar" or "avx2" — the dispatch the optimized entry points select on
/// this machine. Exported to metrics as
/// ml.kernels.path.<name>. (An AVX-512 tier was measured and rejected:
/// the 512-bit frequency license slows the scalar exp/softmax epilogue
/// interleaved with the GEMM blocks, so the fused step ran ~40% slower
/// than AVX2; ChaCha20 keeps its AVX-512 path because it is pure
/// integer SIMD with no scalar phases.)
const char* ActivePath();

}  // namespace bcfl::ml::kernels
