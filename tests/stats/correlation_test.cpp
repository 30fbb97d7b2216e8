#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"

namespace flare::stats {
namespace {

TEST(Pearson, PerfectPositiveLinear) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeLinear) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, AffineShiftInvariant) {
  const std::vector<double> x = {1, 5, 2, 9};
  std::vector<double> y;
  for (const double v : x) y.push_back(3.0 * v - 7.0);
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, ConstantInputGivesZero) {
  const std::vector<double> x = {3, 3, 3, 3};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
  EXPECT_DOUBLE_EQ(pearson(y, x), 0.0);
}

TEST(Pearson, IndependentNoiseIsNearZero) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_LT(std::abs(pearson(x, y)), 0.03);
}

TEST(Pearson, IsSymmetric) {
  const std::vector<double> x = {1, 4, 2, 8, 5};
  const std::vector<double> y = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(pearson(x, y), pearson(y, x));
}

TEST(Pearson, RejectsSizeMismatchAndTooFew) {
  EXPECT_THROW(
      (void)pearson(std::vector<double>{1, 2}, std::vector<double>{1}),
      std::invalid_argument);
  EXPECT_THROW((void)pearson(std::vector<double>{1}, std::vector<double>{1}),
               std::invalid_argument);
}

TEST(Pearson, ClampedToUnitInterval) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 2, 3};
  const double r = pearson(x, y);
  EXPECT_LE(r, 1.0);
  EXPECT_GE(r, -1.0);
}

TEST(Spearman, MonotonicNonlinearIsPerfect) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (const double v : x) y.push_back(std::exp(v));  // monotone, not linear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);  // pearson sees the nonlinearity
}

TEST(Spearman, HandlesTies) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Spearman, InverseMonotone) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {100, 10, 1, 0.1};
  EXPECT_NEAR(spearman(x, y), -1.0, 1e-12);
}

}  // namespace
}  // namespace flare::stats
