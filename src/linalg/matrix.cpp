#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace flare::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  ensure(data_.size() == rows_ * cols_, "Matrix: data size does not match shape");
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  ensure(!rows.empty(), "Matrix::from_rows: no rows");
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ensure(rows[r].size() == cols, "Matrix::from_rows: ragged rows");
    m.set_row(r, rows[r]);
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at: index out of range");
  return (*this)(r, c);
}

std::span<const double> Matrix::row(std::size_t r) const {
  ensure(r < rows_, "Matrix::row: index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  ensure(r < rows_, "Matrix::row: index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::column(std::size_t c) const {
  ensure(c < cols_, "Matrix::column: index out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  ensure(r < rows_, "Matrix::set_row: index out of range");
  ensure(values.size() == cols_, "Matrix::set_row: size mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = values[c];
}

void Matrix::set_column(std::size_t c, std::span<const double> values) {
  ensure(c < cols_, "Matrix::set_column: index out of range");
  ensure(values.size() == rows_, "Matrix::set_column: size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other, util::ThreadPool* pool) const {
  ensure(cols_ == other.rows_, "Matrix::multiply: inner dimension mismatch");
  return centered_product(*this, {}, other, other.cols_, pool);
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  ensure(x.size() == cols_, "Matrix::multiply: vector size mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = dot(row(r), x);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ensure(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ensure(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (const double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  ensure(rows_ == other.rows_ && cols_ == other.cols_,
         "Matrix::max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

Matrix Matrix::select_columns(std::span<const std::size_t> keep) const {
  for (const std::size_t c : keep) {
    ensure(c < cols_, "Matrix::select_columns: index out of range");
  }
  Matrix out(rows_, keep.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < keep.size(); ++k) {
      out(r, k) = (*this)(r, keep[k]);
    }
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> keep) const {
  Matrix out(keep.size(), cols_);
  for (std::size_t k = 0; k < keep.size(); ++k) {
    ensure(keep[k] < rows_, "Matrix::select_rows: index out of range");
    out.set_row(k, row(keep[k]));
  }
  return out;
}

double dot(std::span<const double> a, std::span<const double> b) {
  ensure(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double squared_distance(std::span<const double> a, std::span<const double> b) {
  ensure(a.size() == b.size(), "squared_distance: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace flare::linalg
