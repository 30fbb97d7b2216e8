// Matrix assertion helpers for property tests.
//
// Eigenvector comparisons need more care than element-wise closeness: a
// component is only defined up to sign, and a *subspace* spanned by several
// near-degenerate components is only defined up to rotation within it. The
// helpers here give each relaxation its own assertion so a test states
// exactly the invariance it means:
//
//   MatricesNear           element-wise, no slack
//   ColumnsMatchUpToSign   per-column, sign-invariant
//   SubspacesNear          leading-k column spans, rotation-invariant
//                          (max principal angle via the Grassmann metric)
//   subspace_sin_bound     ‖residual‖_F ≥ that angle's sine, accurate down
//                          to rounding where the cosine form stalls near 1e-8
//
// plus the small constructors and reference computations the tests compare
// against: from_rows, max_abs_diff, matvec and sum_squared_errors.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace flare::testing {

/// Builds a matrix from a list of equally sized rows.
inline linalg::Matrix from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) throw std::invalid_argument("from_rows: no rows");
  linalg::Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) m.set_row(r, rows[r]);
  return m;
}

/// Max |a_ij - b_ij|; the matrices must have equal shape.
inline double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// Sum over points of squared distance to the centroid of their cluster.
inline double sum_squared_errors(const linalg::Matrix& data,
                                 const linalg::Matrix& centroids,
                                 const std::vector<std::size_t>& assignment) {
  if (assignment.size() != data.rows()) {
    throw std::invalid_argument("sum_squared_errors: assignment size");
  }
  double sse = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (assignment[i] >= centroids.rows()) {
      throw std::invalid_argument("sum_squared_errors: bad cluster id");
    }
    sse += linalg::squared_distance(data.row(i), centroids.row(assignment[i]));
  }
  return sse;
}

/// Matrix–vector product m·x; x.size() must equal m.cols().
inline std::vector<double> matvec(const linalg::Matrix& m,
                                  std::span<const double> x) {
  if (x.size() != m.cols()) throw std::invalid_argument("matvec: size mismatch");
  std::vector<double> out(m.rows(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out[r] += m(r, c) * x[c];
  }
  return out;
}

inline ::testing::AssertionResult MatricesNear(const linalg::Matrix& actual,
                                               const linalg::Matrix& expected,
                                               double tolerance) {
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << actual.rows() << "x" << actual.cols()
           << " vs " << expected.rows() << "x" << expected.cols();
  }
  double worst = 0.0;
  std::size_t worst_r = 0, worst_c = 0;
  for (std::size_t r = 0; r < actual.rows(); ++r) {
    for (std::size_t c = 0; c < actual.cols(); ++c) {
      const double diff = std::abs(actual(r, c) - expected(r, c));
      if (diff > worst) {
        worst = diff;
        worst_r = r;
        worst_c = c;
      }
    }
  }
  if (worst <= tolerance) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "max |diff| " << worst << " at (" << worst_r << ", " << worst_c
         << ") exceeds " << tolerance << " (actual " << actual(worst_r, worst_c)
         << ", expected " << expected(worst_r, worst_c) << ")";
}

/// Column-wise comparison treating each column as defined only up to sign —
/// the natural equality for eigenvector/loading matrices produced by solvers
/// with different (or no) sign conventions.
inline ::testing::AssertionResult ColumnsMatchUpToSign(
    const linalg::Matrix& actual, const linalg::Matrix& expected,
    double tolerance) {
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << actual.rows() << "x" << actual.cols()
           << " vs " << expected.rows() << "x" << expected.cols();
  }
  for (std::size_t c = 0; c < actual.cols(); ++c) {
    double plus = 0.0, minus = 0.0;  // max |diff| under each sign choice
    for (std::size_t r = 0; r < actual.rows(); ++r) {
      plus = std::max(plus, std::abs(actual(r, c) - expected(r, c)));
      minus = std::max(minus, std::abs(actual(r, c) + expected(r, c)));
    }
    const double best = std::min(plus, minus);
    if (best > tolerance) {
      return ::testing::AssertionFailure()
             << "column " << c << " differs by " << best
             << " under its best sign (tolerance " << tolerance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// sin(θ_max) between the subspaces spanned by the first k columns of two
/// (column-orthonormal) bases: the singular values of AᵀB are the cosines of
/// the principal angles, so sin(θ_max) = √(1 − λ_min(BᵀA·AᵀB)). Invariant to
/// column signs, ordering and any rotation within either span.
inline double subspace_angle_sin(const linalg::Matrix& a,
                                 const linalg::Matrix& b, std::size_t k) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_LE(k, std::min(a.cols(), b.cols()));
  if (k == 0 || a.rows() != b.rows()) return 1.0;
  linalg::Matrix overlap(k, k);  // AᵀB over the leading k columns
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      double dot = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) dot += a(r, i) * b(r, j);
      overlap(i, j) = dot;
    }
  }
  linalg::Matrix gram(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      double dot = 0.0;
      for (std::size_t r = 0; r < k; ++r) dot += overlap(r, i) * overlap(r, j);
      gram(i, j) = dot;
    }
  }
  const linalg::SymmetricEigenResult eig = linalg::symmetric_eigen(gram);
  const double cos_sq = std::clamp(eig.eigenvalues.back(), 0.0, 1.0);
  return std::sqrt(1.0 - cos_sq);
}

/// ‖B − A·(AᵀB)‖_F over the first k columns of two matrices with orthonormal
/// columns: the part of span(B) outside span(A), an upper bound on
/// sin(θ_max) between the spans. Unlike subspace_angle_sin's √(1 − cos²), it
/// keeps full precision near 0.
inline double subspace_sin_bound(const linalg::Matrix& a, const linalg::Matrix& b,
                                 std::size_t k) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_LE(k, std::min(a.cols(), b.cols()));
  if (k == 0 || a.rows() != b.rows()) return 1.0;
  const std::size_t n = a.rows();
  double sum = 0.0;
  std::vector<double> coef(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      coef[i] = 0.0;
      for (std::size_t r = 0; r < n; ++r) coef[i] += a(r, i) * b(r, j);
    }
    for (std::size_t r = 0; r < n; ++r) {
      double outside = b(r, j);
      for (std::size_t i = 0; i < k; ++i) outside -= a(r, i) * coef[i];
      sum += outside * outside;
    }
  }
  return std::sqrt(sum);
}

inline ::testing::AssertionResult SubspacesNear(const linalg::Matrix& a,
                                                const linalg::Matrix& b,
                                                std::size_t k,
                                                double tolerance) {
  if (a.rows() != b.rows()) {
    return ::testing::AssertionFailure()
           << "row mismatch: " << a.rows() << " vs " << b.rows();
  }
  if (k > std::min(a.cols(), b.cols())) {
    return ::testing::AssertionFailure()
           << "k = " << k << " exceeds the available columns ("
           << std::min(a.cols(), b.cols()) << ")";
  }
  const double angle = subspace_angle_sin(a, b, k);
  if (angle <= tolerance) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "leading-" << k << " subspaces differ: sin(max principal angle) = "
         << angle << " exceeds " << tolerance;
}

}  // namespace flare::testing
