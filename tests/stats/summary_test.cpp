#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace flare::stats {
namespace {

TEST(BoxSummary, FiveNumbersAreOrdered) {
  const std::vector<double> v = {9, 1, 5, 3, 7, 2, 8, 4, 6};
  const BoxSummary s = box_summary(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_GE(s.iqr(), 0.0);
}

TEST(BoxSummary, ThrowsOnEmpty) {
  EXPECT_THROW((void)box_summary(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace flare::stats
