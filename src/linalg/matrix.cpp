#include "linalg/matrix.hpp"

#include <cmath>
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

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
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

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (const double v : data_) sum += v * v;
  return std::sqrt(sum);
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
