// Dense row-major double matrix.
//
// FLARE's analysis stage works on a scenarios × metrics data matrix
// (~895 × ~112), so a straightforward cache-friendly dense implementation is
// the right tool — no sparse or blocked machinery needed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flare::util {
class ThreadPool;
}

namespace flare::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows × cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows × cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Builds from row-major data; data.size() must equal rows * cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// n × n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// View of row `r` (contiguous in row-major layout).
  [[nodiscard]] std::span<const double> row(std::size_t r) const;
  [[nodiscard]] std::span<double> row(std::size_t r);

  /// Copies column `c` out (columns are strided).
  [[nodiscard]] std::vector<double> column(std::size_t c) const;

  void set_row(std::size_t r, std::span<const double> values);

  [[nodiscard]] Matrix transposed() const;

  /// Matrix product; cols() must equal other.rows(). Runs the row-panel
  /// kernel (linalg::centered_product with no centre), optionally computing
  /// output rows in parallel on `pool` (each output element sums over k in
  /// ascending order regardless, so the result is identical for every
  /// thread count).
  [[nodiscard]] Matrix multiply(const Matrix& other,
                                util::ThreadPool* pool = nullptr) const;

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// Keeps only the listed columns, in the given order.
  [[nodiscard]] Matrix select_columns(std::span<const std::size_t> keep) const;

  /// Keeps only the listed rows, in the given order.
  [[nodiscard]] Matrix select_rows(std::span<const std::size_t> keep) const;

  /// Raw row-major storage.
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Squared Euclidean distance between equally sized vectors.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b);

}  // namespace flare::linalg
