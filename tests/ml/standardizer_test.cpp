#include "ml/standardizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "tests/util/generators.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/property.hpp"
#include "util/error.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

Matrix random_data(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.normal(10.0 * static_cast<double>(c), 1.0 + static_cast<double>(c));
    }
  }
  return m;
}

TEST(Standardizer, OutputHasZeroMeanUnitVariance) {
  const Matrix data = random_data(500, 4, 1);
  Standardizer s;
  const Matrix z = s.fit_transform(data);
  for (std::size_t c = 0; c < 4; ++c) {
    const auto col = z.column(c);
    EXPECT_NEAR(stats::mean(col), 0.0, 1e-10);
    EXPECT_NEAR(stats::stddev(col), 1.0, 1e-10);
  }
}

TEST(Standardizer, InverseTransformRoundTrips) {
  const Matrix data = random_data(100, 3, 2);
  Standardizer s;
  const Matrix z = s.fit_transform(data);
  EXPECT_LT(testing::max_abs_diff(s.inverse_transform(z), data), 1e-10);
}

TEST(Standardizer, ConstantColumnMapsToZero) {
  Matrix data = random_data(50, 2, 3);
  for (std::size_t r = 0; r < 50; ++r) data(r, 1) = 42.0;
  Standardizer s;
  const Matrix z = s.fit_transform(data);
  for (std::size_t r = 0; r < 50; ++r) EXPECT_DOUBLE_EQ(z(r, 1), 0.0);
}

TEST(Standardizer, TransformUsesFittedParameters) {
  const Matrix train = random_data(200, 2, 4);
  Standardizer s;
  s.fit(train);
  // Transforming the training mean row must give ~0.
  Matrix mean_row(1, 2);
  mean_row(0, 0) = s.means()[0];
  mean_row(0, 1) = s.means()[1];
  const Matrix z = s.transform(mean_row);
  EXPECT_NEAR(z(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(z(0, 1), 0.0, 1e-12);
}

TEST(Standardizer, ThrowsWhenNotFitted) {
  const Standardizer s;
  EXPECT_FALSE(s.fitted());
  EXPECT_THROW(s.transform(Matrix(1, 1)), std::invalid_argument);
  EXPECT_THROW(s.inverse_transform(Matrix(1, 1)), std::invalid_argument);
}

TEST(Standardizer, ValidatesColumnCount) {
  Standardizer s;
  s.fit(random_data(10, 3, 5));
  EXPECT_THROW(s.transform(Matrix(5, 2)), std::invalid_argument);
}

TEST(StandardizerProperty, TransformThenInverseIsIdentity) {
  FLARE_CHECK_PROPERTY(15, 0x57Eu, [](stats::Rng& rng, double scale) {
    const std::size_t d = std::max<std::size_t>(2, static_cast<std::size_t>(6 * scale));
    const std::size_t n = std::max<std::size_t>(4, static_cast<std::size_t>(60 * scale));
    const linalg::Matrix data = testing::low_rank_noise_matrix(rng, n, d, 1);
    Standardizer s;
    const linalg::Matrix z = s.fit_transform(data);
    EXPECT_TRUE(testing::MatricesNear(s.inverse_transform(z), data, 1e-9));
  });
}

TEST(Standardizer, FitRejectsNonFiniteValuesNamingTheCell) {
  Matrix data = random_data(4, 3, 2);
  data(2, 1) = std::numeric_limits<double>::quiet_NaN();
  Standardizer s;
  try {
    s.fit(data);
    FAIL() << "expected FaultError for a NaN cell";
  } catch (const FaultError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("row 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 1"), std::string::npos) << msg;
  }
  data(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s.fit(data), FaultError);
  data(2, 1) = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(s.fit(data), FaultError);
}

TEST(Standardizer, SingleRowKeepsUnitScale) {
  Matrix one(1, 2);
  one(0, 0) = 5.0;
  one(0, 1) = -3.0;
  Standardizer s;
  const Matrix z = s.fit_transform(one);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z(0, 1), 0.0);
}

}  // namespace
}  // namespace flare::ml
