#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace flare::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mu, double sigma,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.normal(mu, sigma));
  return v;
}

TEST(NormalCI, MatchesClassicFormula) {
  const auto data = normal_sample(400, 5.0, 1.0, 7);
  const auto ci = normal_mean_ci(data, 0.95);
  const double se = stddev(data) / std::sqrt(400.0);
  EXPECT_NEAR(ci.upper - ci.point, 1.959964 * se, 1e-4);
  EXPECT_NEAR(ci.point - ci.lower, 1.959964 * se, 1e-4);
}

TEST(NormalCI, HigherConfidenceIsWider) {
  const auto data = normal_sample(100, 0.0, 1.0, 8);
  EXPECT_LT(normal_mean_ci(data, 0.90).width(), normal_mean_ci(data, 0.99).width());
}

TEST(NormalCI, SingleSampleHasZeroWidth) {
  const std::vector<double> one = {3.0};
  const auto ci = normal_mean_ci(one, 0.95);
  EXPECT_DOUBLE_EQ(ci.lower, 3.0);
  EXPECT_DOUBLE_EQ(ci.upper, 3.0);
}

TEST(NormalCI, CoverageIsApproximatelyNominal) {
  int covered = 0;
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    const auto data = normal_sample(60, 1.0, 3.0, 100 + static_cast<std::uint64_t>(r));
    if (normal_mean_ci(data, 0.95).contains(1.0)) ++covered;
  }
  // 95% nominal; allow a generous band for finite reps.
  EXPECT_GT(covered, reps * 0.90);
  EXPECT_LT(covered, reps * 0.99);
}

}  // namespace
}  // namespace flare::stats
