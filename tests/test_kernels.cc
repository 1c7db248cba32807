#include "ml/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"

namespace bcfl::ml::kernels {
namespace {

std::vector<double> Random(size_t n, Xoshiro256* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Shape {
  size_t m, k, n;
};

/// Edge shapes (empty, 1xN, Nx1, narrow, non-square) plus the dispatch
/// boundaries: <= 16 output columns takes the fixed-width kernels, wider
/// takes the generic path, >= 512 rows crosses the parallel threshold.
const Shape kEdgeShapes[] = {
    {0, 0, 0}, {0, 3, 4},  {1, 1, 1},  {1, 9, 1},    {6, 1, 3},
    {3, 4, 1}, {2, 2, 17}, {16, 16, 16}, {31, 7, 19}, {5, 65, 10},
};

TEST(KernelPropertyTest, GemmMatchesReferenceOnEdgeShapes) {
  Xoshiro256 rng(1);
  for (const Shape& s : kEdgeShapes) {
    std::vector<double> a = Random(s.m * s.k, &rng);
    std::vector<double> b = Random(s.k * s.n, &rng);
    std::vector<double> ref(s.m * s.n, 0.0), opt(s.m * s.n, 7.0);
    reference::Gemm(a.data(), s.m, s.k, b.data(), s.n, ref.data());
    Gemm(a.data(), s.m, s.k, b.data(), s.n, opt.data());
    if (s.m * s.n == 0) continue;
    EXPECT_TRUE(BitEqual(ref, opt)) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelPropertyTest, GemmMatchesReferenceOnRandomShapes) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t m = 1 + rng.NextBounded(40);
    const size_t k = 1 + rng.NextBounded(80);
    const size_t n = 1 + rng.NextBounded(30);
    std::vector<double> a = Random(m * k, &rng);
    std::vector<double> b = Random(k * n, &rng);
    std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
    reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
    Gemm(a.data(), m, k, b.data(), n, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << m << "x" << k << "x" << n;
  }
}

TEST(KernelPropertyTest, GemmTransAMatchesReference) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = 1 + rng.NextBounded(300);
    const size_t m = 1 + rng.NextBounded(40);
    const size_t n = 1 + rng.NextBounded(24);
    std::vector<double> a = Random(rows * m, &rng);
    std::vector<double> b = Random(rows * n, &rng);
    std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
    reference::GemmTransA(a.data(), rows, m, b.data(), n, ref.data());
    GemmTransA(a.data(), rows, m, b.data(), n, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << rows << " rows, " << m << "x" << n;
  }
}

TEST(KernelPropertyTest, GemmHandlesZeroEntriesIdentically) {
  // The optimized path drops the seed's `if (a == 0.0) continue;` skip;
  // adding a +/-0.0 product must leave every finite accumulator bit
  // unchanged.
  Xoshiro256 rng(4);
  const size_t m = 9, k = 33, n = 11;
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0;
  for (size_t i = 1; i < a.size(); i += 7) a[i] = -0.0;
  std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
  reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
  Gemm(a.data(), m, k, b.data(), n, opt.data());
  EXPECT_TRUE(BitEqual(ref, opt));
}

TEST(KernelPropertyTest, TransposeMatchesReference) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t r = 1 + rng.NextBounded(100);
    const size_t c = 1 + rng.NextBounded(100);
    std::vector<double> a = Random(r * c, &rng);
    std::vector<double> ref(c * r, 0.0), opt(c * r, 7.0);
    reference::Transpose(a.data(), r, c, ref.data());
    Transpose(a.data(), r, c, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << r << "x" << c;
  }
}

TEST(KernelPropertyTest, AxpyMatchesReference) {
  Xoshiro256 rng(6);
  std::vector<double> x = Random(257, &rng);
  std::vector<double> ref = Random(257, &rng);
  std::vector<double> opt = ref;
  reference::Axpy(0.37, x.data(), x.size(), ref.data());
  Axpy(0.37, x.data(), x.size(), opt.data());
  EXPECT_TRUE(BitEqual(ref, opt));
}

TEST(KernelPropertyTest, SoftmaxRowsMatchesReference) {
  Xoshiro256 rng(7);
  for (size_t cols : {size_t{1}, size_t{2}, size_t{10}, size_t{33}}) {
    const size_t rows = 1 + rng.NextBounded(50);
    std::vector<double> ref = Random(rows * cols, &rng);
    std::vector<double> opt = ref;
    reference::SoftmaxRows(ref.data(), rows, cols);
    SoftmaxRows(opt.data(), rows, cols);
    EXPECT_TRUE(BitEqual(ref, opt)) << rows << "x" << cols;
  }
}

TEST(KernelPropertyTest, FusedStepMatchesReferenceOnRandomShapes) {
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng.NextBounded(400);
    const size_t cols = 1 + rng.NextBounded(40);
    const size_t classes = 2 + rng.NextBounded(11);
    std::vector<double> aug = Random(rows * cols, &rng);
    std::vector<int> labels(rows);
    for (int& l : labels) l = static_cast<int>(rng.NextBounded(classes));
    std::vector<double> w_ref(cols * classes, 0.0),
        w_opt(cols * classes, 0.0);
    FusedStepScratch scratch;
    for (int epoch = 0; epoch < 3; ++epoch) {
      const double loss_ref = reference::FusedSoftmaxCeStep(
          aug.data(), rows, cols, labels.data(), classes, 0.05, 1e-4,
          w_ref.data());
      const double loss_opt =
          FusedSoftmaxCeStep(aug.data(), rows, cols, labels.data(), classes,
                             0.05, 1e-4, w_opt.data(), &scratch);
      EXPECT_EQ(loss_ref, loss_opt)
          << rows << "x" << cols << " c=" << classes << " epoch " << epoch;
    }
    EXPECT_TRUE(BitEqual(w_ref, w_opt))
        << rows << "x" << cols << " c=" << classes;
  }
}

TEST(KernelPropertyTest, ParallelGemmBitIdenticalAcrossPoolSizes) {
  Xoshiro256 rng(9);
  const size_t m = 1027, k = 65, n = 10;  // Above the parallel threshold.
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  std::vector<double> serial(m * n, 0.0);
  Gemm(a.data(), m, k, b.data(), n, serial.data());
  for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    SetParallelPool(&pool);
    std::vector<double> parallel(m * n, 7.0);
    Gemm(a.data(), m, k, b.data(), n, parallel.data());
    SetParallelPool(nullptr);
    EXPECT_TRUE(BitEqual(serial, parallel)) << workers << " workers";
  }
  EXPECT_EQ(ParallelPool(), nullptr);
}

TEST(KernelPropertyTest, ActivePathIsKnown) {
  const std::string path = ActivePath();
  EXPECT_TRUE(path == "scalar" || path == "avx2") << path;
}

// Regression for the overflow guard: SoftmaxRowsInPlace subtracts the
// row max before exp, so extreme logits must stay finite and normalized
// instead of collapsing to inf/NaN.
TEST(SoftmaxRowsInPlaceTest, ExtremeLogitsStayFinite) {
  Matrix logits(3, 4);
  const double rows[3][4] = {
      {1e6, -1e6, 0.0, 5e5},
      {-3e4, -3e4 + 1.0, -3e4 - 1.0, -3e4},
      {709.0, 710.0, 711.0, 712.0},  // exp(709) alone would overflow.
  };
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) logits.At(i, j) = rows[i][j];
  }
  SoftmaxRowsInPlace(&logits);
  for (size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 4; ++j) {
      const double p = logits.At(i, j);
      EXPECT_TRUE(std::isfinite(p)) << i << "," << j;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "row " << i;
  }
  // The max logit dominates each extreme row.
  EXPECT_NEAR(logits.At(0, 0), 1.0, 1e-12);
}

}  // namespace
}  // namespace bcfl::ml::kernels
