#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace bcfl::ml {
namespace {

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) EXPECT_EQ(m.At(i, j), 0.0);
  }
  Matrix filled(2, 2, 7.5);
  EXPECT_EQ(filled.At(1, 1), 7.5);
}

TEST(MatrixTest, MatMulHandComputed) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  a.At(0, 0) = 1; a.At(0, 1) = 2; a.At(0, 2) = 3;
  a.At(1, 0) = 4; a.At(1, 1) = 5; a.At(1, 2) = 6;
  Matrix b(3, 2);
  // [7 8; 9 10; 11 12]
  b.At(0, 0) = 7;  b.At(0, 1) = 8;
  b.At(1, 0) = 9;  b.At(1, 1) = 10;
  b.At(2, 0) = 11; b.At(2, 1) = 12;

  auto c = a.MatMul(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->At(0, 0), 58);
  EXPECT_EQ(c->At(0, 1), 64);
  EXPECT_EQ(c->At(1, 0), 139);
  EXPECT_EQ(c->At(1, 1), 154);
}

TEST(MatrixTest, MatMulShapeMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_TRUE(a.MatMul(b).status().IsInvalidArgument());
}

TEST(MatrixTest, AddSubScaleAxpy) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.0);
  ASSERT_TRUE(a.AddInPlace(b).ok());
  EXPECT_EQ(a.At(0, 0), 3.0);
  ASSERT_TRUE(a.SubInPlace(b).ok());
  EXPECT_EQ(a.At(0, 0), 1.0);
  a.Scale(4.0);
  EXPECT_EQ(a.At(1, 1), 4.0);
  ASSERT_TRUE(a.Axpy(0.5, b).ok());
  EXPECT_EQ(a.At(1, 1), 5.0);

  Matrix wrong(3, 2);
  EXPECT_TRUE(a.AddInPlace(wrong).IsInvalidArgument());
  EXPECT_TRUE(a.SubInPlace(wrong).IsInvalidArgument());
  EXPECT_TRUE(a.Axpy(1.0, wrong).IsInvalidArgument());
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m.At(0, 0) = 3;
  m.At(0, 1) = 4;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_EQ(Matrix(3, 3).FrobeniusNorm(), 0.0);
}

TEST(MatrixTest, SetZero) {
  Matrix m(2, 2, 9.0);
  m.SetZero();
  EXPECT_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(MatrixTest, GaussianStatistics) {
  Xoshiro256 rng(7);
  Matrix m = Matrix::Gaussian(200, 200, 3.0, &rng);
  double sum = 0, sum_sq = 0;
  for (double v : m.data()) {
    sum += v;
    sum_sq += v * v;
  }
  double n = static_cast<double>(m.size());
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(MatrixTest, SerializeRoundTrip) {
  Xoshiro256 rng(8);
  Matrix m = Matrix::Gaussian(4, 6, 1.0, &rng);
  ByteWriter writer;
  m.Serialize(&writer);
  ByteReader reader(writer.buffer());
  auto back = Matrix::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
  EXPECT_TRUE(reader.exhausted());
}

// Wire bytes pinned before the codec moved whole matrices at once.
TEST(MatrixTest, SerializeBytesArePinned) {
  Matrix m(2, 3);
  m.mutable_data() = {0.5, -1.0, 2.0, 0.25, -0.0, 1024.0};
  ByteWriter writer;
  m.Serialize(&writer);
  EXPECT_EQ(ToHex(writer.buffer()),
            "02000000" "03000000"
            "000000000000e03f" "000000000000f0bf" "0000000000000040"
            "000000000000d03f" "0000000000000080" "0000000000009040");
}

// Shapes 1 x n for n in 0..1024 at an odd offset inside a larger
// buffer, against the byte-at-a-time format.
TEST(MatrixTest, BulkSerializeMatchesBytewiseCodecAtOddOffsets) {
  Xoshiro256 rng(29);
  for (size_t n = 0; n <= 1024; ++n) {
    Matrix m(1, n);
    for (double& v : m.mutable_data()) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
    }
    ByteWriter writer;
    writer.WriteU8(0xa5);
    m.Serialize(&writer);
    writer.WriteU8(0x5a);

    Bytes expected = {0xa5, 1, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      expected.push_back(static_cast<uint8_t>(n >> (8 * i)));
    }
    for (double v : m.data()) {
      for (int i = 0; i < 8; ++i) {
        expected.push_back(static_cast<uint8_t>(Bits(v) >> (8 * i)));
      }
    }
    expected.push_back(0x5a);
    ASSERT_EQ(writer.buffer(), expected) << "n = " << n;

    ByteReader reader(expected.data() + 1, expected.size() - 2);
    auto back = Matrix::Deserialize(&reader);
    ASSERT_TRUE(back.ok()) << "n = " << n;
    ASSERT_EQ(back->rows(), 1u);
    ASSERT_EQ(back->cols(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(back->data()[i]), Bits(m.data()[i]))
          << "n = " << n << ", i = " << i;
    }
    EXPECT_TRUE(reader.exhausted()) << "n = " << n;
  }
}

TEST(MatrixTest, EveryTruncatedMatrixIsCorruption) {
  Xoshiro256 rng(31);
  Matrix m = Matrix::Gaussian(3, 4, 1.0, &rng);
  ByteWriter writer;
  m.Serialize(&writer);
  for (size_t len = 0; len < writer.size(); ++len) {
    ByteReader reader(writer.buffer().data(), len);
    EXPECT_TRUE(Matrix::Deserialize(&reader).status().IsCorruption())
        << "len = " << len;
  }
}

TEST(MatrixTest, DeserializeRejectsHugeShapes) {
  ByteWriter writer;
  writer.WriteU32(1 << 16);
  writer.WriteU32(1 << 16);
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(Matrix::Deserialize(&reader).status().IsCorruption());
}

TEST(MeanOfMatricesTest, ComputesElementwiseMean) {
  Matrix a(1, 2); a.At(0, 0) = 1; a.At(0, 1) = 10;
  Matrix b(1, 2); b.At(0, 0) = 3; b.At(0, 1) = 20;
  auto mean = MeanOfMatrices({a, b});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean->At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mean->At(0, 1), 15.0);
}

TEST(MeanOfMatricesTest, ErrorsOnEmptyOrMismatch) {
  EXPECT_TRUE(MeanOfMatrices({}).status().IsInvalidArgument());
  Matrix a(1, 2), b(2, 1);
  EXPECT_TRUE(MeanOfMatrices({a, b}).status().IsInvalidArgument());
}

TEST(WeightedMeanTest, RespectsWeights) {
  Matrix a(1, 1); a.At(0, 0) = 0.0;
  Matrix b(1, 1); b.At(0, 0) = 10.0;
  auto mean = WeightedMeanOfMatrices({a, b}, {1.0, 3.0});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean->At(0, 0), 7.5);
}

TEST(WeightedMeanTest, ErrorsOnBadWeights) {
  Matrix a(1, 1);
  EXPECT_TRUE(
      WeightedMeanOfMatrices({a}, {0.0}).status().IsInvalidArgument());
  EXPECT_TRUE(
      WeightedMeanOfMatrices({a}, {-1.0}).status().IsInvalidArgument());
  EXPECT_TRUE(
      WeightedMeanOfMatrices({a}, {1.0, 2.0}).status().IsInvalidArgument());
}

TEST(WeightedMeanTest, UniformWeightsMatchPlainMean) {
  Xoshiro256 rng(9);
  std::vector<Matrix> ms;
  for (int i = 0; i < 4; ++i) ms.push_back(Matrix::Gaussian(3, 3, 1.0, &rng));
  auto plain = MeanOfMatrices(ms);
  auto weighted = WeightedMeanOfMatrices(ms, {2, 2, 2, 2});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(weighted.ok());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_NEAR(plain->data()[i], weighted->data()[i], 1e-12);
  }
}

}  // namespace
}  // namespace bcfl::ml
