#include "ml/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/covariance.hpp"
#include "ml/standardizer.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "tests/util/generators.hpp"
#include "util/error.hpp"
#include "tests/util/matrix_matchers.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

/// Data with a dominant direction (1,1,0)/√2 plus small noise elsewhere.
Matrix anisotropic_data(std::size_t rows, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, 3);
  for (std::size_t r = 0; r < rows; ++r) {
    const double main = rng.normal(0.0, 10.0);
    m(r, 0) = main + rng.normal(0.0, 0.5);
    m(r, 1) = main + rng.normal(0.0, 0.5);
    m(r, 2) = rng.normal(0.0, 0.5);
  }
  return m;
}

TEST(Pca, FirstComponentCapturesDominantDirection) {
  Pca pca;
  pca.fit(anisotropic_data(1000, 1));
  // Loadings of PC0 on x and y are ±1/√2; z near 0.
  EXPECT_NEAR(std::abs(pca.loading(0, 0)), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_NEAR(std::abs(pca.loading(1, 0)), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_NEAR(pca.loading(2, 0), 0.0, 0.05);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.95);
}

TEST(Pca, ExplainedVarianceRatiosSumToOne) {
  Pca pca;
  pca.fit(anisotropic_data(500, 2));
  double sum = 0.0;
  for (const double r : pca.explained_variance_ratio()) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(Pca, EigenvaluesDescending) {
  Pca pca;
  pca.fit(anisotropic_data(500, 3));
  const auto& ev = pca.eigenvalues();
  for (std::size_t i = 1; i < ev.size(); ++i) EXPECT_GE(ev[i - 1], ev[i]);
  for (const double v : ev) EXPECT_GE(v, 0.0);
}

TEST(Pca, ScoresAreUncorrelated) {
  Pca pca;
  const Matrix data = anisotropic_data(2000, 4);
  pca.fit(data);
  const Matrix scores = pca.transform(data, pca.dimension());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_LT(std::abs(stats::pearson(scores.column(i), scores.column(j))), 0.05);
    }
  }
}

TEST(Pca, ScoreVarianceEqualsEigenvalue) {
  Pca pca;
  const Matrix data = anisotropic_data(3000, 5);
  pca.fit(data);
  const Matrix scores = pca.transform(data, pca.dimension());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(stats::variance(scores.column(c)), pca.eigenvalues()[c],
                0.02 * pca.eigenvalues()[0] + 1e-9);
  }
}

TEST(Pca, FullInverseTransformIsLossless) {
  Pca pca;
  const Matrix data = anisotropic_data(100, 6);
  pca.fit(data);
  const Matrix rebuilt = pca.inverse_transform(pca.transform(data, pca.dimension()));
  EXPECT_LT(testing::max_abs_diff(rebuilt, data), 1e-9);
}

TEST(Pca, TruncatedReconstructionErrorMatchesDroppedVariance) {
  Pca pca;
  const Matrix data = anisotropic_data(2000, 7);
  pca.fit(data);
  const Matrix approx = pca.inverse_transform(pca.transform(data, 1));
  // With >95% variance in PC0, the 1-component reconstruction is close.
  double err = 0.0, total = 0.0;
  const auto means = linalg::column_means(data);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      err += (approx(r, c) - data(r, c)) * (approx(r, c) - data(r, c));
      total += (data(r, c) - means[c]) * (data(r, c) - means[c]);
    }
  }
  EXPECT_LT(err / total, 0.05);
}

TEST(Pca, NumComponentsForVarianceTarget) {
  Pca pca;
  pca.fit(anisotropic_data(1000, 8));
  EXPECT_EQ(pca.num_components_for(1.0), 3u);
  EXPECT_EQ(pca.num_components_for(0.9), 1u);  // dominant direction suffices
  EXPECT_GE(pca.num_components_for(0.999), 2u);
}

TEST(Pca, ComponentsAreOrthonormal) {
  Pca pca;
  pca.fit(anisotropic_data(500, 9));
  const Matrix& v = pca.components();
  const Matrix vtv = v.transposed().multiply(v);
  EXPECT_LT(testing::max_abs_diff(vtv, Matrix::identity(3)), 1e-9);
}

TEST(Pca, DeterministicSignConvention) {
  Pca a, b;
  const Matrix data = anisotropic_data(300, 10);
  a.fit(data);
  b.fit(data);
  EXPECT_LT(testing::max_abs_diff(a.components(), b.components()), 1e-15);
  // Largest-|loading| entry of every component is positive.
  for (std::size_t j = 0; j < 3; ++j) {
    double best = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      if (std::abs(a.loading(i, j)) > std::abs(best)) best = a.loading(i, j);
    }
    EXPECT_GT(best, 0.0);
  }
}

TEST(Pca, RejectsFewerRowsThanColumns) {
  // Rank-deficient input: the sample covariance cannot identify a full
  // eigenbasis. Must be a typed numerical error, not a silent fit.
  Pca pca;
  stats::Rng rng(21);
  EXPECT_THROW(pca.fit(testing::low_rank_noise_matrix(rng, 4, 6, 2)),
               NumericalError);
  EXPECT_FALSE(pca.fitted());
  // The square boundary case (rows == cols) is accepted.
  pca.fit(testing::low_rank_noise_matrix(rng, 6, 6, 2));
  EXPECT_TRUE(pca.fitted());
}

TEST(Pca, ValidatesPreconditions) {
  Pca pca;
  EXPECT_FALSE(pca.fitted());
  EXPECT_THROW(pca.transform(Matrix(2, 2), 1), std::invalid_argument);
  EXPECT_THROW(pca.fit(Matrix(1, 3)), std::invalid_argument);
  pca.fit(anisotropic_data(50, 11));
  EXPECT_THROW(pca.transform(Matrix(5, 2), 1), std::invalid_argument);
  EXPECT_THROW(pca.transform(anisotropic_data(5, 1), 0), std::invalid_argument);
  EXPECT_THROW(pca.transform(anisotropic_data(5, 1), 4), std::invalid_argument);
  EXPECT_THROW((void)pca.num_components_for(0.0), std::invalid_argument);
  EXPECT_THROW((void)pca.num_components_for(1.5), std::invalid_argument);
}

TEST(Pca, StandardizedPipelineVarianceTargetMonotone) {
  // Property: num_components_for is monotone in the target.
  Standardizer s;
  Pca pca;
  const Matrix data = anisotropic_data(400, 12);
  pca.fit(s.fit_transform(data));
  std::size_t prev = 0;
  for (const double target : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0}) {
    const std::size_t k = pca.num_components_for(target);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

class PcaDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PcaDimensionSweep, InvariantsHoldAcrossDimensions) {
  const std::size_t dim = GetParam();
  stats::Rng rng(40 + dim);
  Matrix data(200, dim);
  for (std::size_t r = 0; r < 200; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      data(r, c) = rng.normal(0.0, 1.0 + static_cast<double>(c));
    }
  }
  Pca pca;
  pca.fit(data);
  // Orthonormal loadings, non-negative descending eigenvalues, ratios sum 1.
  const Matrix vtv = pca.components().transposed().multiply(pca.components());
  EXPECT_LT(testing::max_abs_diff(vtv, Matrix::identity(dim)), 1e-8);
  double sum = 0.0;
  for (const double r : pca.explained_variance_ratio()) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const Matrix rebuilt = pca.inverse_transform(pca.transform(data, pca.dimension()));
  EXPECT_LT(testing::max_abs_diff(rebuilt, data), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, PcaDimensionSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace flare::ml
