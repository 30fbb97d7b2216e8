#include "linalg/covariance.hpp"

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "tests/util/matrix_matchers.hpp"

namespace flare::linalg {
namespace {

TEST(ColumnMeans, MatchesPerColumnMean) {
  const Matrix m = testing::from_rows({{1, 10}, {3, 20}, {5, 30}});
  const auto means = column_means(m);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
}

TEST(ColumnMeans, ThrowsOnEmpty) {
  EXPECT_THROW(column_means(Matrix()), std::invalid_argument);
}

TEST(Covariance, DiagonalMatchesColumnVariances) {
  stats::Rng rng(4);
  Matrix data(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    data(r, 0) = rng.normal(0.0, 1.0);
    data(r, 1) = rng.normal(5.0, 2.0);
    data(r, 2) = rng.normal(-3.0, 0.5);
  }
  const Matrix cov = covariance_matrix(data);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(cov(c, c), stats::variance(data.column(c)), 1e-10);
  }
}

TEST(Covariance, IsSymmetric) {
  stats::Rng rng(8);
  Matrix data(50, 4);
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t c = 0; c < 4; ++c) data(r, c) = rng.normal();
  }
  const Matrix cov = covariance_matrix(data);
  EXPECT_LT(testing::max_abs_diff(cov, cov.transposed()), 1e-15);
}

TEST(Covariance, PerfectlyCorrelatedColumns) {
  Matrix data(100, 2);
  stats::Rng rng(2);
  for (std::size_t r = 0; r < 100; ++r) {
    const double v = rng.normal();
    data(r, 0) = v;
    data(r, 1) = 2.0 * v;  // cov = 2·var
  }
  const Matrix cov = covariance_matrix(data);
  EXPECT_NEAR(cov(0, 1), 2.0 * cov(0, 0), 1e-10);
  EXPECT_NEAR(cov(1, 1), 4.0 * cov(0, 0), 1e-10);
}

TEST(Covariance, IndependentColumnsNearZeroOffDiagonal) {
  stats::Rng rng(11);
  Matrix data(20000, 2);
  for (std::size_t r = 0; r < 20000; ++r) {
    data(r, 0) = rng.normal();
    data(r, 1) = rng.normal();
  }
  const Matrix cov = covariance_matrix(data);
  EXPECT_LT(std::abs(cov(0, 1)), 0.03);
}

TEST(Covariance, RequiresTwoObservations) {
  EXPECT_THROW(covariance_matrix(Matrix(1, 3)), std::invalid_argument);
}

TEST(Covariance, ConstantColumnHasZeroVariance) {
  const Matrix data = testing::from_rows({{1, 7}, {2, 7}, {3, 7}});
  const Matrix cov = covariance_matrix(data);
  EXPECT_DOUBLE_EQ(cov(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 0.0);
}

}  // namespace
}  // namespace flare::linalg
