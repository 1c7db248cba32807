#include "ml/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/sha256.h"
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
/// boundary: <= 16 output columns takes the fixed-width kernels, wider
/// runs reference::Gemm.
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

/// Hex SHA-256 of the values' IEEE-754 bit patterns, in order.
std::string DigestOf(const std::vector<double>& values) {
  ByteWriter writer;
  for (double v : values) writer.WriteDouble(v);
  return crypto::DigestToHex(crypto::Sha256::Hash(writer.buffer()));
}

// Kernel vectors (the test_gen idiom): inputs come from a fixed
// Xoshiro256 seed and each output is pinned as the SHA-256 of its bytes.
// The optimized entry point and the reference path must both reproduce
// the pinned digest, so a changed digest means the per-element arithmetic
// of a live kernel changed.
constexpr uint64_t kVectorSeed = 17;

TEST(KernelVectorTest, GemmAtSessionEvaluationShape) {
  // A session scores its 1124-row test split against a 65 x 10 model.
  Xoshiro256 rng(kVectorSeed);
  const size_t m = 1124, k = 65, n = 10;
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  std::vector<double> opt(m * n, 7.0), ref(m * n, 7.0);
  Gemm(a.data(), m, k, b.data(), n, opt.data());
  reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
  EXPECT_EQ(DigestOf(opt),
            "b2c54947ab29d43f1ca1a6776b9d12d31abbf068aecc181d17f89da97bcf2f04");
  EXPECT_EQ(DigestOf(ref), DigestOf(opt));
}

TEST(KernelVectorTest, FusedStepAtSessionTrainingShape) {
  // Five local epochs over a 4496-row training split, 65 x 10 model.
  Xoshiro256 rng(kVectorSeed);
  const size_t rows = 4496, cols = 65, classes = 10;
  std::vector<double> aug = Random(rows * cols, &rng);
  std::vector<int> labels(rows);
  for (int& l : labels) l = static_cast<int>(rng.NextBounded(classes));
  std::vector<double> w_opt(cols * classes, 0.0), w_ref(cols * classes, 0.0);
  std::vector<double> loss_opt, loss_ref;
  FusedStepScratch scratch;
  for (int epoch = 0; epoch < 5; ++epoch) {
    loss_opt.push_back(FusedSoftmaxCeStep(aug.data(), rows, cols,
                                          labels.data(), classes, 0.5, 1e-4,
                                          w_opt.data(), &scratch));
    loss_ref.push_back(reference::FusedSoftmaxCeStep(
        aug.data(), rows, cols, labels.data(), classes, 0.5, 1e-4,
        w_ref.data()));
  }
  EXPECT_EQ(DigestOf(w_opt),
            "929a2beb286e0aaa143cfd951fb7bfdb19ff91b5434565561b3f6b9f763c633d");
  EXPECT_EQ(DigestOf(loss_opt),
            "02f9ada12d42cda19fcc80f85554d4a18abd6ee2559bdece8ee1027f1d3749f8");
  EXPECT_EQ(DigestOf(w_ref), DigestOf(w_opt));
  EXPECT_EQ(DigestOf(loss_ref), DigestOf(loss_opt));
}

TEST(KernelVectorTest, GemmWiderThanSixteenColumns) {
  Xoshiro256 rng(kVectorSeed);
  const size_t m = 31, k = 7, n = 19;
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  std::vector<double> opt(m * n, 7.0), ref(m * n, 7.0);
  Gemm(a.data(), m, k, b.data(), n, opt.data());
  reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
  EXPECT_EQ(DigestOf(opt),
            "d540f122c676d30ef2658bf21618ac351dc612a3c4e7a3328955e839b47e4683");
  EXPECT_EQ(DigestOf(ref), DigestOf(opt));
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
