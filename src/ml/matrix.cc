#include "ml/matrix.h"

#include <cmath>

#include "ml/kernels.h"

namespace bcfl::ml {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(size_t rows, size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::Gaussian(size_t rows, size_t cols, double stddev,
                        Xoshiro256* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->NextGaussian(0.0, stddev);
  return m;
}

Status Matrix::AddInPlace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("AddInPlace: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return Status::OK();
}

Status Matrix::SubInPlace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("SubInPlace: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return Status::OK();
}

void Matrix::Scale(double scalar) {
  for (double& v : data_) v *= scalar;
}

Matrix Matrix::Scaled(double scalar) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * scalar;
  return out;
}

Status Matrix::Axpy(double scalar, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("Axpy: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scalar * other.data_[i];
  }
  return Status::OK();
}

void Matrix::SetZero() {
  std::fill(data_.begin(), data_.end(), 0.0);
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

Result<Matrix> Matrix::MatMul(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("MatMul: inner dimensions differ");
  }
  Matrix out(rows_, other.cols_);
  kernels::Gemm(data_.data(), rows_, cols_, other.data_.data(), other.cols_,
                out.data_.data());
  return out;
}

bool Matrix::operator==(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
}

void Matrix::Serialize(ByteWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(rows_));
  writer->WriteU32(static_cast<uint32_t>(cols_));
  writer->WriteDoubles(data_.data(), data_.size());
}

Result<Matrix> Matrix::Deserialize(ByteReader* reader) {
  BCFL_ASSIGN_OR_RETURN(uint32_t rows, reader->ReadU32());
  BCFL_ASSIGN_OR_RETURN(uint32_t cols, reader->ReadU32());
  uint64_t count = static_cast<uint64_t>(rows) * cols;
  // Each element occupies 8 bytes in the stream; a shape that claims
  // more elements than the remaining payload is corrupt — reject before
  // allocating for it. Compare count against remaining/8 rather than
  // count*8 against remaining: rows x cols up to (2^32-1)^2 makes
  // count*8 wrap around uint64, which would let an adversarial header
  // slip past the guard and drive a multi-exabyte allocation.
  if (count > reader->remaining() / 8) {
    return Status::Corruption("matrix shape exceeds payload");
  }
  Matrix m(rows, cols);
  BCFL_RETURN_IF_ERROR(reader->ReadDoubles(m.data_.data(), m.data_.size()));
  return m;
}

Result<Matrix> MeanOfMatrices(const std::vector<Matrix>& matrices) {
  if (matrices.empty()) {
    return Status::InvalidArgument("mean of zero matrices");
  }
  Matrix acc = matrices[0];
  for (size_t i = 1; i < matrices.size(); ++i) {
    BCFL_RETURN_IF_ERROR(acc.AddInPlace(matrices[i]));
  }
  acc.Scale(1.0 / static_cast<double>(matrices.size()));
  return acc;
}

Result<Matrix> WeightedMeanOfMatrices(const std::vector<Matrix>& matrices,
                                      const std::vector<double>& weights) {
  if (matrices.empty() || matrices.size() != weights.size()) {
    return Status::InvalidArgument(
        "weighted mean needs equal, non-zero counts of matrices and weights");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("negative weight");
    total += w;
  }
  if (total == 0.0) return Status::InvalidArgument("weights sum to zero");
  Matrix acc(matrices[0].rows(), matrices[0].cols());
  for (size_t i = 0; i < matrices.size(); ++i) {
    BCFL_RETURN_IF_ERROR(acc.Axpy(weights[i] / total, matrices[i]));
  }
  return acc;
}

}  // namespace bcfl::ml
