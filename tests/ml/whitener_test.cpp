#include "ml/whitener.hpp"

#include <gtest/gtest.h>

#include "ml/pca.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "tests/util/generators.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/property.hpp"
#include "util/error.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

Matrix scaled_data(std::size_t rows, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, 3);
  for (std::size_t r = 0; r < rows; ++r) {
    m(r, 0) = rng.normal(0.0, 100.0);
    m(r, 1) = rng.normal(5.0, 0.01);
    m(r, 2) = rng.normal(-2.0, 1.0);
  }
  return m;
}

TEST(Whitener, OutputColumnsHaveUnitVariance) {
  Whitener w;
  const Matrix white = w.fit_transform(scaled_data(500, 1));
  for (std::size_t c = 0; c < 3; ++c) {
    const auto col = white.column(c);
    EXPECT_NEAR(stats::mean(col), 0.0, 1e-10);
    EXPECT_NEAR(stats::variance(col), 1.0, 1e-10);
  }
}

TEST(Whitener, EqualInformationAcrossWildlyDifferentScales) {
  // The motivating property (§4.4): a 100x-scale column must not dominate.
  Whitener w;
  const Matrix white = w.fit_transform(scaled_data(1000, 2));
  EXPECT_NEAR(stats::variance(white.column(0)), stats::variance(white.column(1)),
              1e-9);
}

TEST(Whitener, InverseTransformRoundTrips) {
  Whitener w;
  const Matrix data = scaled_data(100, 3);
  const Matrix white = w.fit_transform(data);
  EXPECT_LT(testing::max_abs_diff(w.inverse_transform(white), data), 1e-9);
}

TEST(Whitener, AfterPcaScoresAreWhite) {
  stats::Rng rng(4);
  Matrix data(800, 4);
  for (std::size_t r = 0; r < 800; ++r) {
    const double shared = rng.normal(0.0, 5.0);
    for (std::size_t c = 0; c < 4; ++c) data(r, c) = shared + rng.normal();
  }
  Pca pca;
  pca.fit(data);
  Whitener w;
  const Matrix white = w.fit_transform(pca.transform(data, pca.dimension()));
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(stats::variance(white.column(c)), 1.0, 1e-9);
  }
}

TEST(Whitener, ValidatesPreconditions) {
  Whitener w;
  EXPECT_FALSE(w.fitted());
  EXPECT_THROW(w.transform(Matrix(1, 1)), std::invalid_argument);
  EXPECT_THROW(w.fit(Matrix(1, 2)), std::invalid_argument);
  w.fit(scaled_data(10, 5));
  EXPECT_TRUE(w.fitted());
  EXPECT_THROW(w.transform(Matrix(2, 2)), std::invalid_argument);
}

TEST(Whitener, RejectsFewerRowsThanColumns) {
  // A 2x3 score matrix has a rank-deficient covariance; must be a typed
  // numerical error rather than a silently degenerate whitening basis.
  Whitener w;
  stats::Rng rng(7);
  EXPECT_THROW(w.fit(testing::low_rank_noise_matrix(rng, 2, 3, 1)),
               NumericalError);
  EXPECT_FALSE(w.fitted());
  w.fit(testing::low_rank_noise_matrix(rng, 3, 3, 1));  // square boundary ok
  EXPECT_TRUE(w.fitted());
}

TEST(WhitenerProperty, RoundTripsAndWhitensRandomLowRankData) {
  FLARE_CHECK_PROPERTY(15, 0x33Au, [](stats::Rng& rng, double scale) {
    const std::size_t d = std::max<std::size_t>(2, static_cast<std::size_t>(10 * scale));
    const std::size_t n = 20 * d;
    const linalg::Matrix data = testing::low_rank_noise_matrix(
        rng, n, d, std::max<std::size_t>(1, d / 2), /*noise=*/0.5);
    Whitener w;
    const linalg::Matrix white = w.fit_transform(data);
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(stats::mean(white.column(c)), 0.0, 1e-8);
      EXPECT_NEAR(stats::variance(white.column(c)), 1.0, 1e-8);
    }
    EXPECT_TRUE(testing::MatricesNear(w.inverse_transform(white), data, 1e-7));
  });
}

TEST(Whitener, ConstantColumnStaysFinite) {
  Matrix data(20, 2);
  stats::Rng rng(6);
  for (std::size_t r = 0; r < 20; ++r) {
    data(r, 0) = rng.normal();
    data(r, 1) = 3.0;
  }
  Whitener w;
  const Matrix white = w.fit_transform(data);
  for (std::size_t r = 0; r < 20; ++r) EXPECT_DOUBLE_EQ(white(r, 1), 0.0);
}

}  // namespace
}  // namespace flare::ml
