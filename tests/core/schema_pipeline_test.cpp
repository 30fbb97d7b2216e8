// Tests for the §5.3 / §4.1 schema enrichments flowing through the Profiler
// and the pipeline.
#include <gtest/gtest.h>

#include "tests/core/test_env.hpp"

namespace flare::core {
namespace {

TEST(ResolveSchema, MapsSelectorsToCatalogs) {
  EXPECT_EQ(&resolve_schema(MetricSchema::kStandard),
            &metrics::MetricCatalog::standard());
  EXPECT_EQ(&resolve_schema(MetricSchema::kWithJobMix),
            &metrics::MetricCatalog::standard_with_job_mix());
  EXPECT_EQ(resolve_schema(MetricSchema::kTemporal).size(),
            2 * metrics::MetricCatalog::standard().size());
  EXPECT_EQ(resolve_schema(MetricSchema::kWithJobMixTemporal).size(),
            2 * metrics::MetricCatalog::standard_with_job_mix().size());
}

TEST(JobMixProfiling, MixColumnsCarryExactInstanceCounts) {
  const dcsim::InterferenceModel model;
  const Profiler profiler(model);
  const auto& schema = metrics::MetricCatalog::standard_with_job_mix();
  const auto& set = testing::small_scenario_set();
  for (const std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{50}}) {
    const metrics::MetricRow row = testing::profile_one(
        profiler, set.scenarios[i], dcsim::default_machine(), schema);
    for (const dcsim::JobType type : dcsim::all_job_types()) {
      const auto idx = schema.index_of(
          "Machine.Mix_" + std::string(dcsim::job_code(type)) + "_Instances");
      ASSERT_TRUE(idx.has_value());
      EXPECT_DOUBLE_EQ(row.values[*idx], set.scenarios[i].mix.count(type));
    }
  }
}

TEST(TemporalProfiling, StdColumnsMeasureSamplingSpread) {
  const dcsim::InterferenceModel model;
  ProfilerConfig config;
  config.samples_per_scenario = 8;
  const Profiler profiler(model, config);
  const metrics::MetricCatalog schema =
      metrics::MetricCatalog::with_temporal_stddev(metrics::MetricCatalog::standard());
  const auto& scenario = testing::small_scenario_set().scenarios[3];
  const metrics::MetricRow row =
      testing::profile_one(profiler, scenario, dcsim::default_machine(), schema);

  const auto mips = schema.index_of("Machine.MIPS");
  const auto mips_std = schema.index_of("Machine.MIPS_Std");
  ASSERT_TRUE(mips && mips_std);
  EXPECT_GT(row.values[*mips], 0.0);
  EXPECT_GT(row.values[*mips_std], 0.0) << "noise across samples -> nonzero std";
  EXPECT_LT(row.values[*mips_std], 0.2 * row.values[*mips])
      << "sampling spread is a small fraction of the mean";

  // Exact occupancy counters have zero temporal spread.
  const auto occ_std = schema.index_of("Machine.TotalOccupancy_vCPU_Std");
  ASSERT_TRUE(occ_std.has_value());
  EXPECT_DOUBLE_EQ(row.values[*occ_std], 0.0);
}

TEST(TemporalProfiling, SingleSampleGivesZeroStd) {
  const dcsim::InterferenceModel model;
  ProfilerConfig config;
  config.samples_per_scenario = 1;
  const Profiler profiler(model, config);
  const metrics::MetricCatalog schema =
      metrics::MetricCatalog::with_temporal_stddev(metrics::MetricCatalog::standard());
  const metrics::MetricRow row =
      testing::profile_one(profiler, testing::small_scenario_set().scenarios[0],
                           dcsim::default_machine(), schema);
  for (const metrics::MetricInfo& m : schema.metrics()) {
    if (metrics::MetricCatalog::is_stddev_column(m)) {
      EXPECT_DOUBLE_EQ(row.values[m.index], 0.0) << m.name;
    }
  }
}

TEST(TemporalProfiling, BaseColumnsUnchangedByEnrichment) {
  const dcsim::InterferenceModel model;
  const Profiler profiler(model);
  const auto& base_schema = metrics::MetricCatalog::standard();
  const metrics::MetricCatalog enriched =
      metrics::MetricCatalog::with_temporal_stddev(base_schema);
  const auto& scenario = testing::small_scenario_set().scenarios[7];
  const metrics::MetricRow plain = testing::profile_one(
      profiler, scenario, dcsim::default_machine(), base_schema);
  const metrics::MetricRow rich = testing::profile_one(
      profiler, scenario, dcsim::default_machine(), enriched);
  for (std::size_t i = 0; i < base_schema.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.values[i], rich.values[i]) << base_schema.info(i).name;
  }
}

TEST(SchemaPipeline, JobMixSchemaFitsAndEvaluates) {
  FlareConfig config = testing::small_flare_config();
  config.schema = MetricSchema::kWithJobMix;
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  EXPECT_EQ(pipeline.database().num_metrics(),
            metrics::MetricCatalog::standard_with_job_mix().size());
  const FeatureEstimate est = pipeline.evaluate(feature_dvfs_cap());
  EXPECT_GT(est.impact_pct, 0.0);
}

TEST(SchemaPipeline, TemporalSchemaFitsAndEvaluates) {
  FlareConfig config = testing::small_flare_config();
  config.schema = MetricSchema::kTemporal;
  FlarePipeline pipeline(config);
  // The temporal catalog roughly doubles the refined column count (~198), so
  // this schema needs a larger population than small_scenario_set() (154
  // rows) to keep the PCA fit full-rank.
  dcsim::SubmissionConfig sub;
  sub.target_distinct_scenarios = 230;
  pipeline.fit(dcsim::generate_scenario_set(sub, dcsim::default_machine()));
  EXPECT_GT(pipeline.analysis().num_components,
            testing::fitted_pipeline().analysis().num_components)
      << "temporal columns add variance dimensions";
  const FeatureEstimate est = pipeline.evaluate(feature_cache_sizing());
  EXPECT_GT(est.impact_pct, 0.0);
}

}  // namespace
}  // namespace flare::core
