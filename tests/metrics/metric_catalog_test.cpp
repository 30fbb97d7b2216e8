#include "metrics/metric_catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace flare::metrics {
namespace {

TEST(MetricCatalog, StandardHasOverHundredMetrics) {
  // Paper §4.2: "100+ raw performance/resource metrics".
  EXPECT_GT(MetricCatalog::standard().size(), 100u);
}

TEST(MetricCatalog, TwoLevelCollection) {
  const MetricCatalog& cat = MetricCatalog::standard();
  const auto count_at = [&](MetricLevel level) {
    return std::count_if(
        cat.metrics().begin(), cat.metrics().end(),
        [level](const MetricInfo& m) { return m.level == level; });
  };
  const std::size_t machine = count_at(MetricLevel::kMachine);
  const std::size_t hp = count_at(MetricLevel::kHpJobs);
  EXPECT_GT(hp, 40u);
  EXPECT_GT(machine, hp) << "machine level adds occupancy/power-only metrics";
  EXPECT_EQ(machine + hp, cat.size());
}

TEST(MetricCatalog, EveryPerLevelMetricExistsAtBothLevels) {
  const MetricCatalog& cat = MetricCatalog::standard();
  for (const MetricInfo& m : cat.metrics()) {
    if (m.level != MetricLevel::kHpJobs) continue;
    EXPECT_TRUE(cat.index_of("Machine." + m.base_name).has_value())
        << m.base_name << " missing at machine level";
  }
}

TEST(MetricCatalog, NamesAreUniqueAndQualified) {
  const MetricCatalog& cat = MetricCatalog::standard();
  std::set<std::string> names;
  for (const MetricInfo& m : cat.metrics()) {
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    const std::string prefix(to_string(m.level));
    EXPECT_EQ(m.name, prefix + "." + m.base_name);
  }
}

TEST(MetricCatalog, IndicesAreDense) {
  const MetricCatalog& cat = MetricCatalog::standard();
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(cat.info(i).index, i);
  }
  EXPECT_THROW((void)cat.info(cat.size()), std::invalid_argument);
}

TEST(MetricCatalog, IndexOfRoundTrips) {
  const MetricCatalog& cat = MetricCatalog::standard();
  for (const MetricInfo& m : cat.metrics()) {
    const auto idx = cat.index_of(m.name);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, m.index);
  }
  EXPECT_FALSE(cat.index_of("No.SuchMetric").has_value());
}

TEST(MetricCatalog, Fig6KeyMetricsPresent) {
  // Spot-check the Fig. 6 schema: two-level perf + topdown + /proc metrics.
  const MetricCatalog& cat = MetricCatalog::standard();
  for (const char* name :
       {"Machine.MIPS", "HP.MIPS", "Machine.LLC_MPKI", "HP.LLC_MPKI",
        "Machine.TD_FrontendBound", "HP.TD_BackendMem", "Machine.CPU_UtilFrac",
        "Machine.Network_Mbps", "Machine.Disk_IOPS", "Machine.Freq_GHz",
        "Machine.TotalOccupancy_vCPU"}) {
    EXPECT_TRUE(cat.index_of(name).has_value()) << name;
  }
}

TEST(MetricCatalog, CustomCatalogValidatesDenseIndices) {
  MetricInfo a;
  a.index = 1;  // not dense
  a.name = "X.a";
  EXPECT_THROW(MetricCatalog({a}), std::invalid_argument);
}

TEST(MetricCatalog, LevelAndCategoryNames) {
  EXPECT_EQ(to_string(MetricLevel::kMachine), "Machine");
  EXPECT_EQ(to_string(MetricLevel::kHpJobs), "HP");
  EXPECT_EQ(to_string(MetricCategory::kTopdown), "Topdown");
  EXPECT_EQ(to_string(MetricCategory::kOccupancy), "Occupancy");
}

}  // namespace
}  // namespace flare::metrics
