#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/full_evaluator.hpp"
#include "tests/core/test_env.hpp"

namespace flare::core {
namespace {

TEST(FlarePipeline, RequiresFitBeforeUse) {
  FlarePipeline pipeline(testing::small_flare_config());
  EXPECT_FALSE(pipeline.fitted());
  EXPECT_THROW(pipeline.evaluate(feature_dvfs_cap()), std::invalid_argument);
  EXPECT_THROW((void)pipeline.database(), std::invalid_argument);
  EXPECT_THROW((void)pipeline.analysis(), std::invalid_argument);
  EXPECT_THROW((void)pipeline.scenario_set(), std::invalid_argument);
  EXPECT_THROW(pipeline.apply_scheduler_change({}), std::invalid_argument);
}

TEST(FlarePipeline, FitRejectsEmptySet) {
  FlarePipeline pipeline(testing::small_flare_config());
  EXPECT_THROW(pipeline.fit(dcsim::ScenarioSet{}), std::invalid_argument);
}

TEST(FlarePipeline, EndToEndEstimatesTrackTheDatacenter) {
  FlarePipeline& pipeline = testing::fitted_pipeline();
  const baselines::FullDatacenterEvaluator truth(pipeline.impact_model(),
                                                 pipeline.scenario_set());
  for (const Feature& f : standard_features()) {
    const FeatureEstimate est = pipeline.evaluate(f);
    const auto full = truth.evaluate(f);
    // Small test set + k=8: allow a loose band; the bench harness checks the
    // paper-scale <1% with 900 scenarios and k=18.
    EXPECT_NEAR(est.impact_pct, full.impact_pct, 2.5) << f.name();
    EXPECT_GT(est.impact_pct, 0.0);
  }
}

TEST(FlarePipeline, CostLedgerCountsDistinctReplays) {
  FlareConfig config = testing::small_flare_config();
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  EXPECT_EQ(pipeline.scenario_replays(), 0u);
  (void)pipeline.evaluate(feature_dvfs_cap());
  EXPECT_EQ(pipeline.scenario_replays(), pipeline.analysis().chosen_k);
  (void)pipeline.evaluate(feature_dvfs_cap());  // cached pairs
  EXPECT_EQ(pipeline.scenario_replays(), pipeline.analysis().chosen_k);
}

TEST(FlarePipeline, PerJobEvaluation) {
  FlarePipeline& pipeline = testing::fitted_pipeline();
  const PerJobEstimate est =
      pipeline.evaluate_per_job(feature_cache_sizing(), dcsim::JobType::kWebSearch);
  EXPECT_TRUE(std::isfinite(est.impact_pct));
  EXPECT_EQ(est.job, dcsim::JobType::kWebSearch);
}

TEST(FlarePipeline, SchedulerChangeReclusters) {
  FlareConfig config = testing::small_flare_config();
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  const FeatureEstimate before = pipeline.evaluate(feature_dvfs_cap());

  // New scheduler: only scenarios with <= 6 containers survive (a
  // consolidation-averse policy), others never occur.
  std::vector<double> new_weights;
  for (const auto& s : testing::small_scenario_set().scenarios) {
    new_weights.push_back(s.mix.total_instances() <= 6 ? s.observation_weight : 0.0);
  }
  pipeline.apply_scheduler_change(new_weights);
  const FeatureEstimate after = pipeline.evaluate(feature_dvfs_cap());

  // Lighter scenarios -> different estimate; representatives must occur.
  EXPECT_NE(before.impact_pct, after.impact_pct);
  for (const ClusterImpact& ci : after.per_cluster) {
    if (ci.weight > 0.0) {
      EXPECT_GT(new_weights[ci.representative_scenario], 0.0);
    }
  }
}

TEST(FlarePipeline, RefitResetsSchedulerChange) {
  FlareConfig config = testing::small_flare_config();
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  std::vector<double> uniform(testing::small_scenario_set().size(), 1.0);
  pipeline.apply_scheduler_change(uniform);
  pipeline.fit(testing::small_scenario_set());
  // Weights restored from the set itself.
  EXPECT_DOUBLE_EQ(pipeline.scenario_set().scenarios[0].observation_weight,
                   testing::small_scenario_set().scenarios[0].observation_weight);
}

TEST(FlarePipeline, WorksOnSmallMachineShape) {
  dcsim::SubmissionConfig sub;
  sub.target_distinct_scenarios = 100;
  const dcsim::ScenarioSet small_set =
      dcsim::generate_scenario_set(sub, dcsim::small_machine());
  FlareConfig config = testing::small_flare_config();
  config.machine = dcsim::small_machine();
  FlarePipeline pipeline(config);
  pipeline.fit(small_set);
  const FeatureEstimate est = pipeline.evaluate(feature_dvfs_cap());
  EXPECT_GT(est.impact_pct, 0.0);
}

}  // namespace
}  // namespace flare::core
