#pragma once

#include <cstddef>
#include <vector>

namespace bcfl::ml::kernels {

// Compute kernels behind Matrix::MatMul, the evaluation helpers and the
// fused logistic-regression training step. Three kernels are live: Gemm
// (optimized up to 16 output columns), SoftmaxRows and FusedSoftmaxCeStep.
// The paper's model is 65 x 10, so every session GEMM fits the
// fixed-width cores; wider outputs, more than 16 classes and a null
// fused-step scratch run the reference:: kernels instead. Each optimized
// kernel runs on the caller's thread. All buffers are dense row-major
// doubles; output buffers must not alias inputs.
//
// Determinism contract
// --------------------
// Every kernel accumulates each output element in strictly ascending
// k-order — the same per-element operation sequence as the seed's scalar
// triple loops — so the optimized kernels and the reference kernels
// produce bit-identical results on finite inputs. Concretely:
//   * the optimized GEMMs vectorize across *output columns* and unroll
//     across *output rows*; neither axis carries an accumulation, so no
//     floating-point operation is reordered;
//   * the AVX2 variants are compiled without FMA, so no multiply-add is
//     contracted (the build also pins -ffp-contract=off for this file);
//   * the only arithmetic difference from the seed loops is dropping the
//     `if (a == 0.0) continue;` branch, which is bit-neutral: the
//     accumulator starts at +0.0 and adding a ±0.0 product leaves every
//     finite accumulator value unchanged.

/// Seed-faithful scalar kernels, always compiled: the equivalence tests
/// and bench_kernels check the optimized entry points against them, and
/// the optimized entry points fall back to them outside the fixed widths.
namespace reference {

/// out[i,j] = sum_k a[i,k]*b[k,j]; a is ar x ac, b is ac x bc.
void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);

/// out[i,j] = sum_k a[k,i]*b[k,j] (i.e. a^T * b); a is ar x ac, b is
/// ar x bc, out is ac x bc.
void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out);

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

/// out = a * b, bit-identical to reference::Gemm. Up to 16 output
/// columns use the fixed-width register-accumulator cores; wider outputs
/// run reference::Gemm.
void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);
/// In-place row softmax, bit-identical to reference::SoftmaxRows.
void SoftmaxRows(double* m, size_t rows, size_t cols);

/// Fused softmax–cross-entropy–gradient step: streams `aug` once per
/// epoch in L1-sized row blocks — logits, stable softmax, loss and the
/// gradient contribution of the block are produced in one pass, and the
/// per-element accumulation order (k strictly ascending) is exactly the
/// reference sequence, so the result is bit-identical to
/// reference::FusedSoftmaxCeStep. `scratch` may be reused across calls.
/// More than 16 classes or a null `scratch` run the reference step.
double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights,
                          FusedStepScratch* scratch);

/// "scalar" or "avx2" — the dispatch the optimized entry points select on
/// this machine. Exported to metrics as
/// ml.kernels.path.<name>. (An AVX-512 tier was measured and rejected:
/// the 512-bit frequency license slows the scalar exp/softmax epilogue
/// interleaved with the GEMM blocks, so the fused step ran ~40% slower
/// than AVX2; ChaCha20 keeps its AVX-512 path because it is pure
/// integer SIMD with no scalar phases.)
const char* ActivePath();

}  // namespace bcfl::ml::kernels
