#include "ml/correlation_filter.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

/// Columns: 0 = base signal, 1 = exact copy, 2 = negated copy,
/// 3 = independent signal, 4 = scaled copy of 3.
Matrix duplicate_heavy_data(std::size_t rows, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, 5);
  for (std::size_t r = 0; r < rows; ++r) {
    const double a = rng.normal();
    const double b = rng.normal();
    m(r, 0) = a;
    m(r, 1) = a * 3.0 + 1.0;
    m(r, 2) = -a;
    m(r, 3) = b;
    m(r, 4) = 0.5 * b;
  }
  return m;
}

TEST(CorrelationFilter, DropsExactDuplicatesKeepsIndependent) {
  const Matrix data = duplicate_heavy_data(200, 1);
  const CorrelationFilter filter(0.95);
  const CorrelationFilterResult result = filter.fit(data);
  EXPECT_EQ(result.kept_columns, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(result.drops.size(), 3u);
}

TEST(CorrelationFilter, NegativeCorrelationAlsoCountsAsDuplicate) {
  const Matrix data = duplicate_heavy_data(200, 2);
  const CorrelationFilterResult result = CorrelationFilter(0.95).fit(data);
  bool negated_dropped = false;
  for (const CorrelationDrop& d : result.drops) {
    if (d.dropped_column == 2) {
      negated_dropped = true;
      EXPECT_LT(d.correlation, -0.95);
      EXPECT_EQ(d.kept_column, 0u);
    }
  }
  EXPECT_TRUE(negated_dropped);
}

TEST(CorrelationFilter, KeepsEarliestMemberOfDuplicateFamily) {
  const Matrix data = duplicate_heavy_data(100, 3);
  const CorrelationFilterResult result = CorrelationFilter(0.95).fit(data);
  // Column 4 duplicates 3 and 3 comes first -> 3 kept, 4 dropped against 3.
  for (const CorrelationDrop& d : result.drops) {
    if (d.dropped_column == 4) {
      EXPECT_EQ(d.kept_column, 3u);
    }
  }
}

TEST(CorrelationFilter, ApplySelectsSurvivingColumns) {
  const Matrix data = duplicate_heavy_data(150, 4);
  const CorrelationFilterResult report = CorrelationFilter(0.95).fit(data);
  const Matrix filtered = data.select_columns(report.kept_columns);
  EXPECT_EQ(filtered.cols(), 2u);
  EXPECT_EQ(filtered.rows(), data.rows());
  for (std::size_t r = 0; r < filtered.rows(); ++r) {
    EXPECT_DOUBLE_EQ(filtered(r, 0), data(r, 0));
    EXPECT_DOUBLE_EQ(filtered(r, 1), data(r, 3));
  }
}

TEST(CorrelationFilter, IndependentColumnsAllSurvive) {
  stats::Rng rng(5);
  Matrix data(300, 6);
  for (std::size_t r = 0; r < 300; ++r) {
    for (std::size_t c = 0; c < 6; ++c) data(r, c) = rng.normal();
  }
  const CorrelationFilterResult result = CorrelationFilter(0.95).fit(data);
  EXPECT_EQ(result.kept_columns.size(), 6u);
  EXPECT_TRUE(result.drops.empty());
}

TEST(CorrelationFilter, ThresholdControlsAggressiveness) {
  stats::Rng rng(6);
  Matrix data(400, 2);
  for (std::size_t r = 0; r < 400; ++r) {
    const double a = rng.normal();
    data(r, 0) = a;
    data(r, 1) = a + 0.35 * rng.normal();  // r ≈ 0.94
  }
  EXPECT_EQ(CorrelationFilter(0.99).fit(data).kept_columns.size(), 2u);
  EXPECT_EQ(CorrelationFilter(0.80).fit(data).kept_columns.size(), 1u);
}

TEST(CorrelationFilter, ValidatesArguments) {
  EXPECT_THROW(CorrelationFilter(0.0), std::invalid_argument);
  EXPECT_THROW(CorrelationFilter(1.5), std::invalid_argument);
  EXPECT_THROW(CorrelationFilter(0.9).fit(Matrix(1, 2)), std::invalid_argument);
}

TEST(CorrelationFilter, AuditTrailReferencesRealColumns) {
  const Matrix data = duplicate_heavy_data(100, 7);
  const CorrelationFilterResult result = CorrelationFilter(0.95).fit(data);
  for (const CorrelationDrop& d : result.drops) {
    EXPECT_LT(d.dropped_column, data.cols());
    EXPECT_LT(d.kept_column, data.cols());
    EXPECT_GE(std::abs(d.correlation), 0.95);
  }
}

}  // namespace
}  // namespace flare::ml
