#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"

namespace bcfl::ml {

/// Dense row-major matrix of doubles.
///
/// Deliberately small: the paper's workload is logistic regression on
/// 64-feature data, so a row-major layout with one GEMM (MatMul, backed
/// by kernels::Gemm) and element-wise operations is all the linear
/// algebra the library needs.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;
  /// Zero-initialised rows x cols matrix.
  Matrix(size_t rows, size_t cols);
  /// Matrix filled with `value`.
  Matrix(size_t rows, size_t cols, double value);

  /// Matrix with entries drawn i.i.d. from N(0, stddev^2).
  static Matrix Gaussian(size_t rows, size_t cols, double stddev,
                         Xoshiro256* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row `r`.
  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  // -- element-wise -------------------------------------------------------
  /// this += other. Shapes must match.
  Status AddInPlace(const Matrix& other);
  /// this -= other. Shapes must match.
  Status SubInPlace(const Matrix& other);
  /// this *= scalar.
  void Scale(double scalar);
  /// Returns scalar * this without mutating (fused copy + scale).
  Matrix Scaled(double scalar) const;
  /// this += scalar * other (AXPY). Shapes must match.
  Status Axpy(double scalar, const Matrix& other);
  /// Sets every entry to zero.
  void SetZero();

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Returns this * other (GEMM). Fails on shape mismatch.
  Result<Matrix> MatMul(const Matrix& other) const;

  bool operator==(const Matrix& other) const;

  // -- serialization ------------------------------------------------------
  /// Appends rows, cols, then the payload to `writer`.
  void Serialize(ByteWriter* writer) const;
  static Result<Matrix> Deserialize(ByteReader* reader);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Element-wise mean of equally-shaped matrices; fails on empty input or
/// shape mismatch. This is FedAvg's aggregation kernel.
Result<Matrix> MeanOfMatrices(const std::vector<Matrix>& matrices);

/// Element-wise weighted mean with the given nonnegative weights
/// (normalised internally); fails when weights sum to zero.
Result<Matrix> WeightedMeanOfMatrices(const std::vector<Matrix>& matrices,
                                      const std::vector<double>& weights);

}  // namespace bcfl::ml
