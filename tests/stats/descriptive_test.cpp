#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"

namespace flare::stats {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(Mean, MatchesHandComputation) { EXPECT_DOUBLE_EQ(mean(kSample), 5.0); }

TEST(Mean, SingleElement) { EXPECT_DOUBLE_EQ(mean(std::vector<double>{3.0}), 3.0); }

TEST(Mean, ThrowsOnEmpty) {
  EXPECT_THROW((void)mean(std::vector<double>{}), std::invalid_argument);
}

TEST(Variance, UnbiasedSampleVariance) {
  // Σ(x-5)² = 32; /(n-1)=7 -> 32/7
  EXPECT_NEAR(variance(kSample), 32.0 / 7.0, 1e-12);
}

TEST(Variance, SingleElementIsZero) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{42.0}), 0.0);
}

TEST(Stddev, IsSqrtOfVariance) {
  EXPECT_NEAR(stddev(kSample), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(MinMax, FindExtremes) {
  EXPECT_DOUBLE_EQ(min_value(kSample), 2.0);
  EXPECT_DOUBLE_EQ(max_value(kSample), 9.0);
}

TEST(Percentile, EndpointsAreMinMax) {
  EXPECT_DOUBLE_EQ(percentile(kSample, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(kSample, 1.0), 9.0);
}

TEST(Percentile, MedianInterpolates) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Percentile, OddCountMedianIsMiddle) {
  const std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Percentile, DoesNotRequireSortedInput) {
  const std::vector<double> v = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, RejectsOutOfRangeQ) {
  EXPECT_THROW((void)percentile(kSample, -0.1), std::invalid_argument);
  EXPECT_THROW((void)percentile(kSample, 1.1), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchStatistics) {
  RunningStats rs;
  for (const double v : kSample) rs.add(v);
  EXPECT_EQ(rs.count(), kSample.size());
  EXPECT_DOUBLE_EQ(rs.mean(), mean(kSample));
  EXPECT_NEAR(rs.variance(), variance(kSample), 1e-12);
}

TEST(RunningStats, EmptyAccessorThrows) {
  RunningStats rs;
  EXPECT_THROW((void)rs.mean(), std::invalid_argument);
}

TEST(RunningStats, VarianceZeroBelowTwoSamples) {
  RunningStats rs;
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, IsNumericallyStableForLargeOffsets) {
  RunningStats rs;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) rs.add(1e9 + rng.uniform());
  EXPECT_NEAR(rs.variance(), 1.0 / 12.0, 0.01);
}

}  // namespace
}  // namespace flare::stats
