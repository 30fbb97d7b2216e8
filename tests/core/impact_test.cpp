#include "core/impact.hpp"

#include <gtest/gtest.h>

namespace flare::core {
namespace {

dcsim::JobMix busy_mix() {
  dcsim::JobMix mix;
  mix.add(dcsim::JobType::kGraphAnalytics, 3);
  mix.add(dcsim::JobType::kWebSearch, 2);
  mix.add(dcsim::JobType::kLpMcf, 4);
  return mix;
}

class ImpactModelTest : public ::testing::Test {
 protected:
  ImpactModel impact_{dcsim::default_machine()};
};

TEST_F(ImpactModelTest, InherentMipsMatchesInterferenceModel) {
  for (const dcsim::JobType t : dcsim::all_job_types()) {
    EXPECT_NEAR(impact_.inherent_mips(t),
                impact_.model().inherent_mips(dcsim::default_machine(), t), 1e-9);
    EXPECT_GT(impact_.inherent_mips(t), 0.0);
  }
}

TEST_F(ImpactModelTest, HpPerformanceCountsOnlyHpJobs) {
  dcsim::JobMix lp_heavy;
  lp_heavy.add(dcsim::JobType::kDataCaching, 1);
  lp_heavy.add(dcsim::JobType::kLpMcf, 8);
  dcsim::JobMix lp_light;
  lp_light.add(dcsim::JobType::kDataCaching, 1);

  const double heavy = impact_.hp_performance(lp_heavy, dcsim::default_machine(),
                                              MeasurementContext::kTestbed);
  const double light = impact_.hp_performance(lp_light, dcsim::default_machine(),
                                              MeasurementContext::kTestbed);
  // LP colocation degrades the HP job but contributes nothing itself.
  EXPECT_LT(heavy, light);
  EXPECT_GT(heavy, 0.0);
}

TEST_F(ImpactModelTest, SoloHpJobHasUnitNormalisedPerformance) {
  dcsim::JobMix solo;
  solo.add(dcsim::JobType::kInMemoryAnalytics, 1);
  ImpactModel noiseless(dcsim::default_machine(), dcsim::default_job_catalog(), [] {
    dcsim::ModelOptions o;
    o.enable_noise = false;
    return o;
  }());
  EXPECT_NEAR(noiseless.hp_performance(solo, dcsim::default_machine(),
                                       MeasurementContext::kTestbed),
              1.0, 1e-9);
}

TEST_F(ImpactModelTest, DegradingFeaturesHavePositiveImpact) {
  for (const Feature& f : standard_features()) {
    EXPECT_GT(impact_.scenario_impact_pct(busy_mix(), f,
                                          MeasurementContext::kTestbed),
              0.0)
        << f.name();
  }
}

TEST_F(ImpactModelTest, BaselineFeatureHasZeroImpact) {
  EXPECT_NEAR(impact_.scenario_impact_pct(busy_mix(), baseline_feature(),
                                          MeasurementContext::kTestbed),
              0.0, 1e-9);
}

TEST_F(ImpactModelTest, ScenarioImpactRequiresHpJobs) {
  dcsim::JobMix lp_only;
  lp_only.add(dcsim::JobType::kLpSjeng, 2);
  EXPECT_THROW((void)impact_.scenario_impact_pct(
                   lp_only, feature_dvfs_cap(), MeasurementContext::kTestbed),
               std::invalid_argument);
}

TEST_F(ImpactModelTest, JobImpactRequiresJobInMix) {
  EXPECT_THROW(
      (void)impact_.job_impact_pct(dcsim::JobType::kMediaStreaming,
                                   busy_mix(), feature_dvfs_cap(),
                                   MeasurementContext::kTestbed),
      std::invalid_argument);
}

TEST_F(ImpactModelTest, JobImpactIsFiniteAndBounded) {
  const double impact = impact_.job_impact_pct(
      dcsim::JobType::kGraphAnalytics, busy_mix(), feature_cache_sizing(),
      MeasurementContext::kTestbed);
  EXPECT_GT(impact, -100.0);
  EXPECT_LT(impact, 100.0);
}

TEST_F(ImpactModelTest, MeasurementContextsAreIndependentStreams) {
  const double dc = impact_.scenario_impact_pct(busy_mix(), feature_dvfs_cap(),
                                                MeasurementContext::kDatacenter);
  const double tb = impact_.scenario_impact_pct(busy_mix(), feature_dvfs_cap(),
                                                MeasurementContext::kTestbed);
  EXPECT_NE(dc, tb) << "datacenter and testbed are different measurements";
  EXPECT_NEAR(dc, tb, 5.0) << "... of the same underlying quantity";
  // Each context is itself deterministic.
  EXPECT_DOUBLE_EQ(dc, impact_.scenario_impact_pct(busy_mix(), feature_dvfs_cap(),
                                                   MeasurementContext::kDatacenter));
}

TEST_F(ImpactModelTest, SmallMachineBaselineWorks) {
  const ImpactModel small(dcsim::small_machine());
  dcsim::JobMix mix;
  mix.add(dcsim::JobType::kDataServing, 2);
  mix.add(dcsim::JobType::kLpOmnetpp, 2);
  EXPECT_GT(small.scenario_impact_pct(mix, feature_dvfs_cap(),
                                      MeasurementContext::kTestbed),
            0.0);
}

}  // namespace
}  // namespace flare::core
