#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "stats/rng.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/property.hpp"
#include "util/error.hpp"

namespace flare::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(SymmetricEigen, DiagonalMatrixEigenvaluesSortedDescending) {
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const auto result = symmetric_eigen(d);
  EXPECT_NEAR(result.eigenvalues[0], 5.0, 1e-10);
  EXPECT_NEAR(result.eigenvalues[1], 3.0, 1e-10);
  EXPECT_NEAR(result.eigenvalues[2], 1.0, 1e-10);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix m = testing::from_rows({{2, 1}, {1, 2}});
  const auto result = symmetric_eigen(m);
  EXPECT_NEAR(result.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(result.eigenvalues[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/√2 up to sign.
  EXPECT_NEAR(std::abs(result.eigenvectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(SymmetricEigen, ReconstructsOriginalMatrix) {
  const Matrix m = random_symmetric(12, 77);
  const auto [values, vectors] = symmetric_eigen(m);
  // A == V diag(λ) Vᵀ
  Matrix lambda(12, 12);
  for (std::size_t i = 0; i < 12; ++i) lambda(i, i) = values[i];
  const Matrix rebuilt = vectors.multiply(lambda).multiply(vectors.transposed());
  EXPECT_LT(testing::max_abs_diff(rebuilt, m), 1e-8);
}

TEST(SymmetricEigen, EigenvectorsAreOrthonormal) {
  const Matrix m = random_symmetric(10, 5);
  const auto result = symmetric_eigen(m);
  const Matrix vtv =
      result.eigenvectors.transposed().multiply(result.eigenvectors);
  EXPECT_LT(testing::max_abs_diff(vtv, Matrix::identity(10)), 1e-9);
}

TEST(SymmetricEigen, SatisfiesEigenEquation) {
  const Matrix m = random_symmetric(8, 9);
  const auto result = symmetric_eigen(m);
  for (std::size_t j = 0; j < 8; ++j) {
    const std::vector<double> v = result.eigenvectors.column(j);
    const std::vector<double> mv = testing::matvec(m, v);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(mv[i], result.eigenvalues[j] * v[i], 1e-8);
    }
  }
}

TEST(SymmetricEigen, TraceEqualsEigenvalueSum) {
  const Matrix m = random_symmetric(15, 3);
  const auto result = symmetric_eigen(m);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 15; ++i) trace += m(i, i);
  for (const double ev : result.eigenvalues) sum += ev;
  EXPECT_NEAR(trace, sum, 1e-8);
}

TEST(SymmetricEigen, OneByOne) {
  Matrix m(1, 1);
  m(0, 0) = 4.0;
  const auto result = symmetric_eigen(m);
  EXPECT_DOUBLE_EQ(result.eigenvalues[0], 4.0);
  EXPECT_NEAR(std::abs(result.eigenvectors(0, 0)), 1.0, 1e-12);
}

TEST(SymmetricEigen, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(symmetric_eigen(Matrix(2, 3)), std::invalid_argument);
  const Matrix asym = testing::from_rows({{1, 2}, {0, 1}});
  EXPECT_THROW(symmetric_eigen(asym), std::invalid_argument);
}

TEST(SymmetricEigen, HandlesRepeatedEigenvalues) {
  Matrix id2(4, 4);
  for (std::size_t i = 0; i < 4; ++i) id2(i, i) = 2.0;
  const auto result = symmetric_eigen(id2);
  for (const double ev : result.eigenvalues) EXPECT_NEAR(ev, 2.0, 1e-10);
  const Matrix vtv =
      result.eigenvectors.transposed().multiply(result.eigenvectors);
  EXPECT_LT(testing::max_abs_diff(vtv, Matrix::identity(4)), 1e-9);
}

TEST(SymmetricEigen, HandlesZeroMatrix) {
  const auto result = symmetric_eigen(Matrix(3, 3));
  for (const double ev : result.eigenvalues) EXPECT_DOUBLE_EQ(ev, 0.0);
}

/// A diagonal-dominant matrix like the merged covariance the incremental PCA
/// fold hands to the QL solver: diag(descending) plus a small symmetric bump.
Matrix near_diagonal(std::size_t n, double bump, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = static_cast<double>(n - i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.normal(0.0, bump);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

// The SymmetricEigenWarm* suites pin the solver of the warm (near-diagonal)
// tracked-basis fold, which is symmetric_eigen_ql.
TEST(SymmetricEigenWarm, MatchesColdSolverOnNearDiagonalInput) {
  const Matrix m = near_diagonal(20, 0.05, 43);
  const auto cold = symmetric_eigen(m);
  const auto warm = symmetric_eigen_ql(m);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(cold.eigenvalues[i], warm.eigenvalues[i], 1e-9);
  }
  EXPECT_TRUE(flare::testing::ColumnsMatchUpToSign(cold.eigenvectors,
                                                   warm.eigenvectors, 1e-7));
}

TEST(SymmetricEigenWarm, SharesTheColdSolverContract) {
  EXPECT_THROW(symmetric_eigen_ql(Matrix(2, 3)), std::invalid_argument);
  const Matrix asym = testing::from_rows({{1, 2}, {0, 1}});
  EXPECT_THROW(symmetric_eigen_ql(asym), std::invalid_argument);
  const auto one = symmetric_eigen_ql(near_diagonal(1, 0.0, 0));
  EXPECT_DOUBLE_EQ(one.eigenvalues[0], 1.0);
}

TEST(SymmetricEigenWarmProperty, ReconstructsAndStaysOrthonormal) {
  FLARE_CHECK_PROPERTY(15, 0xE16u, [](stats::Rng& rng, double scale) {
    const std::size_t n = std::max<std::size_t>(2, static_cast<std::size_t>(24 * scale));
    const double bump = 0.2 * rng.uniform();
    const Matrix m = near_diagonal(n, bump, rng.next());
    const auto result = symmetric_eigen_ql(m);
    const std::vector<double>& values = result.eigenvalues;
    const Matrix& vectors = result.eigenvectors;
    for (std::size_t i = 1; i < n; ++i) EXPECT_GE(values[i - 1], values[i]);
    const Matrix vtv = vectors.transposed().multiply(vectors);
    EXPECT_LT(testing::max_abs_diff(vtv, Matrix::identity(n)), 1e-9);
    Matrix lambda(n, n);
    for (std::size_t i = 0; i < n; ++i) lambda(i, i) = values[i];
    const Matrix rebuilt = vectors.multiply(lambda).multiply(vectors.transposed());
    EXPECT_LT(testing::max_abs_diff(rebuilt, m), 1e-8);
  });
}

/// Runs `solve` on `m` and returns the FaultError message ("" if none).
template <typename Solve>
std::string fault_message(Solve solve, const Matrix& m) {
  try {
    (void)solve(m);
  } catch (const FaultError& e) {
    return e.what();
  }
  return "";
}

TEST(SymmetricEigen, RejectsNonFiniteInputNamingTheEntry) {
  // Before the up-front check a NaN surfaced as "matrix is not symmetric".
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix m = random_symmetric(4, 7);
    m(2, 1) = bad;
    m(1, 2) = bad;
    const auto jacobi = [](const Matrix& x) { return symmetric_eigen(x); };
    const auto ql = [](const Matrix& x) { return symmetric_eigen_ql(x); };
    EXPECT_NE(fault_message(jacobi, m).find("non-finite entry at (1, 2)"),
              std::string::npos);
    EXPECT_NE(fault_message(ql, m).find("non-finite entry at (1, 2)"),
              std::string::npos);
    const auto leading = [](const Matrix& x) { return symmetric_eigen_leading(x, 2); };
    EXPECT_NE(fault_message(leading, m).find("non-finite entry at (1, 2)"),
              std::string::npos);
    Matrix one(1, 1);
    one(0, 0) = bad;
    EXPECT_THROW((void)symmetric_eigen(one), FaultError);
    EXPECT_THROW((void)symmetric_eigen_ql(one), FaultError);
    EXPECT_THROW((void)symmetric_eigen_leading(one, 0), FaultError);
  }
}

TEST(SymmetricEigenQl, OverflowingReductionHitsTheIterationCap) {
  // Finite input whose Householder reduction overflows to NaN. A NaN never
  // counts as converged, so the QL loop runs into its 30-iteration cap and
  // throws instead of looping forever (JAMA's tql2 has no cap) or returning
  // NaN eigenpairs.
  const double big = std::numeric_limits<double>::max();
  const Matrix m = testing::from_rows({{big, big}, {big, -big}});
  try {
    (void)symmetric_eigen_ql(m);
    FAIL() << "an overflowing solve must throw";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("did not converge"), std::string::npos);
  }
}

TEST(SymmetricEigenLeading, ValidatesShapeAndK) {
  const Matrix m = random_symmetric(4, 11);
  EXPECT_THROW((void)symmetric_eigen_leading(m, 5), std::invalid_argument);
  EXPECT_THROW((void)symmetric_eigen_leading(Matrix(2, 3), 1), std::invalid_argument);
  EXPECT_THROW((void)symmetric_eigen_leading(Matrix(), 0), std::invalid_argument);
  Matrix asym = m;
  asym(0, 3) += 1.0;
  EXPECT_THROW((void)symmetric_eigen_leading(asym, 1), std::invalid_argument);
  // k == 0 is the spectrum alone; k == n every vector.
  EXPECT_EQ(symmetric_eigen_leading(m, 0).eigenvectors.cols(), 0u);
  EXPECT_EQ(symmetric_eigen_leading(m, 0).eigenvalues.size(), 4u);
  EXPECT_EQ(symmetric_eigen_leading(m, 4).eigenvectors.cols(), 4u);
}

TEST(SymmetricEigenLeading, OverflowingReductionHitsTheIterationCap) {
  // The eigenvalue half runs the same capped QL recurrences as
  // symmetric_eigen_ql, so the same NaN reduction stops at the same cap.
  const double big = std::numeric_limits<double>::max();
  const Matrix m = testing::from_rows({{big, big}, {big, -big}});
  try {
    (void)symmetric_eigen_leading(m, 1);
    FAIL() << "an overflowing solve must throw";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("did not converge"), std::string::npos);
  }
}

TEST(SymmetricEigenLeading, OverflowingSpectrumThrowsNumericalError) {
  // Finite entries whose eigenvalue 2·max overflows: a non-finite result
  // throws instead of coming back.
  const double big = std::numeric_limits<double>::max();
  const Matrix m = testing::from_rows({{big, big}, {big, big}});
  EXPECT_THROW((void)symmetric_eigen_ql(m), NumericalError);
  for (const std::size_t k : {0u, 1u, 2u}) {
    EXPECT_THROW((void)symmetric_eigen_leading(m, k), NumericalError) << "k " << k;
  }
}

TEST(SymmetricEigenLeading, InverseIterationIsCapped) {
  // A poisoned shift never passes the growth test: the iteration stops at
  // its cap with NumericalError instead of spinning or returning NaN.
  const std::vector<double> diag{2.0, 1.0, 0.5};
  const std::vector<double> off{0.25, 0.125};
  const std::vector<double> poisoned{std::numeric_limits<double>::quiet_NaN()};
  try {
    (void)detail::tridiagonal_eigenvectors(diag, off, poisoned);
    FAIL() << "a NaN shift must throw";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("inverse iteration did not converge"),
              std::string::npos);
  }
  // An overflowing tridiagonal is refused before any solve.
  const double big = std::numeric_limits<double>::max();
  const std::vector<double> huge{big, big};
  const std::vector<double> huge_off{big};
  const std::vector<double> shift{1.0};
  EXPECT_THROW((void)detail::tridiagonal_eigenvectors(huge, huge_off, shift),
               NumericalError);
  // And a malformed one is refused outright.
  EXPECT_THROW((void)detail::tridiagonal_eigenvectors({}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)detail::tridiagonal_eigenvectors(diag, diag, shift),
               std::invalid_argument);
  EXPECT_THROW((void)detail::tridiagonal_eigenvectors({1.0}, {}, diag),
               std::invalid_argument);
}

TEST(SymmetricEigenLeading, TridiagonalVectorsAreUnitEigenvectors) {
  // T = tridiag(1, 2, 1) of order 5 has λ_j = 2 + 2·cos(jπ/6), j = 1..5.
  const std::size_t n = 5;
  const std::vector<double> diag(n, 2.0);
  const std::vector<double> off(n - 1, 1.0);
  std::vector<double> lambda;
  for (std::size_t j = 1; j <= n; ++j) {
    lambda.push_back(2.0 + 2.0 * std::cos(static_cast<double>(j) * M_PI / 6.0));
  }
  const Matrix z = detail::tridiagonal_eigenvectors(diag, off, lambda);
  ASSERT_EQ(z.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm_sq = 0.0;
    double largest = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double tz = diag[i] * z(j, i);
      if (i > 0) tz += off[i - 1] * z(j, i - 1);
      if (i + 1 < n) tz += off[i] * z(j, i + 1);
      EXPECT_NEAR(tz, lambda[j] * z(j, i), 1e-14) << "vector " << j;
      norm_sq += z(j, i) * z(j, i);
      if (std::abs(z(j, i)) > std::abs(largest)) largest = z(j, i);
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-15);
    EXPECT_GT(largest, 0.0);
  }
}

class EigenSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeSweep, ReconstructionHoldsAcrossSizes) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 100 + n);
  const auto [values, vectors] = symmetric_eigen(m);
  Matrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = values[i];
  const Matrix rebuilt = vectors.multiply(lambda).multiply(vectors.transposed());
  EXPECT_LT(testing::max_abs_diff(rebuilt, m), 1e-7);
  // Eigenvalues are sorted descending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_GE(values[i - 1], values[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace flare::linalg
