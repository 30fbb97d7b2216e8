// The ISSUE drift → action matrix: one test per verdict asserting exactly
// which analysis stages re-ran (via AnalysisResult::stage_counters), plus the
// interplay with apply_scheduler_change. Each test fits its own pipeline —
// ingest mutates the fitted state, so the shared fitted_pipeline() is off
// limits here.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "tests/core/test_env.hpp"
#include "tests/util/property.hpp"
#include "util/error.hpp"

namespace flare::core {
namespace {

dcsim::ScenarioSet make_batch(std::size_t n, std::uint64_t seed) {
  dcsim::SubmissionConfig config;
  config.target_distinct_scenarios = n;
  config.seed = seed;
  return dcsim::generate_scenario_set(config, dcsim::default_machine());
}

/// Thresholds that force a given verdict regardless of what the (honestly
/// drawn, but small and noisy) batch looks like.
DriftConfig always_valid() {
  DriftConfig config;
  config.refit_distance_ratio = 1e6;
  config.refit_coverage_fraction = 1.0;
  config.reweight_threshold = 1.0;  // TV distance never exceeds 1
  return config;
}

DriftConfig always_reweight() {
  DriftConfig config;
  config.refit_distance_ratio = 1e6;
  config.refit_coverage_fraction = 1.0;
  config.reweight_threshold = 1e-6;
  return config;
}

DriftConfig always_refit() {
  DriftConfig config;
  // A 5% coverage radius leaves ~95% of any honest batch uncovered, far past
  // the 10% refit trigger.
  config.coverage_quantile = 0.05;
  config.refit_coverage_fraction = 0.1;
  return config;
}

std::unique_ptr<FlarePipeline> fitted_with(const DriftConfig& drift) {
  FlareConfig config = testing::small_flare_config();
  config.drift = drift;
  auto pipeline = std::make_unique<FlarePipeline>(config);
  pipeline->fit(testing::small_scenario_set());
  return pipeline;
}

void expect_consistent_population(FlarePipeline& pipeline) {
  const std::size_t n = pipeline.scenario_set().size();
  EXPECT_EQ(pipeline.database().num_rows(), n);
  EXPECT_EQ(pipeline.analysis().cluster_space.rows(), n);
  EXPECT_EQ(pipeline.analysis().clustering.assignment.size(), n);
  double sum = 0.0;
  for (const double w : pipeline.analysis().cluster_weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The estimator accepts the grown analysis and produces a finite estimate.
  const FeatureEstimate est = pipeline.evaluate(feature_dvfs_cap());
  EXPECT_TRUE(std::isfinite(est.impact_pct));
}

TEST(PipelineIngest, ValidBatchAssignsRowsWithoutRerunningAnyStage) {
  const auto pipeline = fitted_with(always_valid());
  const std::size_t base_rows = pipeline->scenario_set().size();
  const StageCounters before = pipeline->analysis().stage_counters;

  const dcsim::ScenarioSet batch = make_batch(20, 99);
  const IngestReport report = pipeline->ingest(batch);

  EXPECT_EQ(report.action, DriftVerdict::kValid);
  EXPECT_EQ(report.appended, batch.size());
  EXPECT_EQ(report.first_new_row, base_rows);
  const StageCounters after = pipeline->analysis().stage_counters;
  // ISSUE criterion: a kValid ingest re-runs zero upstream stages — and for
  // kValid, not even the representatives stage.
  EXPECT_EQ(after.upstream_total(), before.upstream_total());
  EXPECT_EQ(after.representatives, before.representatives);
  EXPECT_EQ(pipeline->scenario_set().size(), base_rows + batch.size());
  expect_consistent_population(*pipeline);
  // New rows got real assignments into the fitted clusters.
  for (std::size_t r = base_rows; r < pipeline->scenario_set().size(); ++r) {
    EXPECT_LT(pipeline->analysis().clustering.assignment[r],
              pipeline->analysis().chosen_k);
  }
}

TEST(PipelineIngest, ReweightBatchRefreshesOnlyRepresentatives) {
  const auto pipeline = fitted_with(always_reweight());
  const StageCounters before = pipeline->analysis().stage_counters;

  const IngestReport report = pipeline->ingest(make_batch(20, 101));

  EXPECT_EQ(report.drift.verdict, DriftVerdict::kReweight);
  EXPECT_EQ(report.action, DriftVerdict::kReweight);
  const StageCounters after = pipeline->analysis().stage_counters;
  EXPECT_EQ(after.upstream_total(), before.upstream_total());  // zero upstream
  EXPECT_EQ(after.representatives, before.representatives + 1);
  expect_consistent_population(*pipeline);
}

TEST(PipelineIngest, RefitVerdictRerunsEveryStageWarmStarted) {
  const auto pipeline = fitted_with(always_refit());
  const std::size_t base_rows = pipeline->scenario_set().size();
  const StageCounters before = pipeline->analysis().stage_counters;

  const IngestReport report = pipeline->ingest(make_batch(20, 103));

  EXPECT_EQ(report.drift.verdict, DriftVerdict::kRefit);
  EXPECT_EQ(report.action, DriftVerdict::kRefit);
  const StageCounters after = pipeline->analysis().stage_counters;
  // A refit re-runs the whole analysis: each stage runs exactly once more.
  EXPECT_EQ(after.refine, before.refine + 1);
  EXPECT_EQ(after.standardize, before.standardize + 1);
  EXPECT_EQ(after.pca, before.pca + 1);
  EXPECT_EQ(after.whiten, before.whiten + 1);
  EXPECT_EQ(after.cluster, before.cluster + 1);
  EXPECT_EQ(after.representatives, before.representatives + 1);
  EXPECT_EQ(pipeline->scenario_set().size(), base_rows + report.appended);
  expect_consistent_population(*pipeline);
}

TEST(PipelineIngest, PolicyAlwaysForcesARefit) {
  const auto pipeline = fitted_with(always_valid());
  const StageCounters before = pipeline->analysis().stage_counters;
  const IngestReport report =
      pipeline->ingest(make_batch(20, 105), RefitPolicy::kAlways);
  EXPECT_EQ(report.drift.verdict, DriftVerdict::kValid);
  EXPECT_EQ(report.action, DriftVerdict::kRefit);
  EXPECT_EQ(pipeline->analysis().stage_counters.total(), before.total() + 6);
  expect_consistent_population(*pipeline);
}

TEST(PipelineIngest, PolicyNeverDowngradesARefitToReweight) {
  const auto pipeline = fitted_with(always_refit());
  const StageCounters before = pipeline->analysis().stage_counters;
  const IngestReport report =
      pipeline->ingest(make_batch(20, 107), RefitPolicy::kNever);
  EXPECT_EQ(report.drift.verdict, DriftVerdict::kRefit);
  EXPECT_EQ(report.action, DriftVerdict::kReweight);
  const StageCounters after = pipeline->analysis().stage_counters;
  EXPECT_EQ(after.upstream_total(), before.upstream_total());
  EXPECT_EQ(after.representatives, before.representatives + 1);
  expect_consistent_population(*pipeline);
}

TEST(PipelineIngest, SchedulerChangeSurvivesAValidIngest) {
  const auto pipeline = fitted_with(always_valid());
  const std::size_t base_rows = pipeline->scenario_set().size();
  // §5.6 reweighting first: double the weight of the first half of the fleet.
  std::vector<double> new_weights;
  for (std::size_t i = 0; i < base_rows; ++i) {
    new_weights.push_back(i < base_rows / 2 ? 2.0 : 1.0);
  }
  pipeline->apply_scheduler_change(new_weights);
  const StageCounters after_change = pipeline->analysis().stage_counters;

  const IngestReport report = pipeline->ingest(make_batch(20, 109));
  EXPECT_EQ(report.action, DriftVerdict::kValid);
  // The scheduler's weights stay in force for the pre-existing rows — both in
  // the scenario set and in the archived database the next refit would read.
  EXPECT_DOUBLE_EQ(pipeline->scenario_set().scenarios[0].observation_weight, 2.0);
  EXPECT_DOUBLE_EQ(pipeline->database().row(0).observation_weight, 2.0);
  EXPECT_DOUBLE_EQ(
      pipeline->database().row(base_rows - 1).observation_weight, 1.0);
  const StageCounters after = pipeline->analysis().stage_counters;
  EXPECT_EQ(after.upstream_total(), after_change.upstream_total());
  expect_consistent_population(*pipeline);
}

TEST(PipelineIngest, SchedulerChangeAfterIngestCoversTheGrownFleet) {
  const auto pipeline = fitted_with(always_valid());
  const IngestReport report = pipeline->ingest(make_batch(20, 111));
  const std::size_t n = pipeline->scenario_set().size();
  EXPECT_EQ(n, report.first_new_row + report.appended);
  // apply_scheduler_change now takes weights for the *grown* population, and
  // replays only the cluster + representatives stages.
  const StageCounters before = pipeline->analysis().stage_counters;
  std::vector<double> weights(n, 1.0);
  weights[n - 1] = 5.0;  // emphasise a freshly ingested scenario
  pipeline->apply_scheduler_change(weights);
  const StageCounters after = pipeline->analysis().stage_counters;
  EXPECT_EQ(after.refine, before.refine);
  EXPECT_EQ(after.pca, before.pca);
  EXPECT_EQ(after.cluster, before.cluster + 1);
  EXPECT_EQ(after.representatives, before.representatives + 1);
  expect_consistent_population(*pipeline);
}

// --- Incremental PCA on the ingest path ---

/// Fraction of row pairs on which two clusterings agree about co-membership.
/// Permutation-invariant, so it compares clusterings whose labels differ.
double co_membership_agreement(const std::vector<std::size_t>& a,
                               const std::vector<std::size_t>& b) {
  std::size_t agree = 0, pairs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      ++pairs;
      if ((a[i] == a[j]) == (b[i] == b[j])) ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(pairs);
}

TEST(PipelineIngestPca, IncrementalPolicySplicesInsteadOfRefitting) {
  FlareConfig config = testing::small_flare_config();
  config.drift = always_refit();
  config.pca_update = PcaUpdatePolicy::kIncremental;
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  const StageCounters before = pipeline.analysis().stage_counters;

  const IngestReport report = pipeline.ingest(make_batch(20, 113));

  EXPECT_EQ(report.action, DriftVerdict::kRefit);
  EXPECT_TRUE(report.pca_incremental_refit);
  const StageCounters after = pipeline.analysis().stage_counters;
  // The basis was spliced, not refit: everything upstream of whitening is
  // untouched; the fold plus the splice book two incremental updates.
  EXPECT_EQ(after.refine, before.refine);
  EXPECT_EQ(after.standardize, before.standardize);
  EXPECT_EQ(after.pca, before.pca);
  EXPECT_EQ(after.whiten, before.whiten + 1);
  EXPECT_EQ(after.cluster, before.cluster + 1);
  EXPECT_EQ(after.representatives, before.representatives + 1);
  EXPECT_EQ(after.pca_incremental, before.pca_incremental + 2);
  expect_consistent_population(pipeline);
}

TEST(PipelineIngestPca, AutoPolicyEscalatesToColdRefitOnBasisDrift) {
  FlareConfig config = testing::small_flare_config();
  config.drift = always_valid();
  config.pca_update = PcaUpdatePolicy::kAuto;
  config.drift.pca_drift_limit = 0.0;  // any rotation at all escalates
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  const StageCounters before = pipeline.analysis().stage_counters;

  const IngestReport report = pipeline.ingest(make_batch(20, 115));

  EXPECT_EQ(report.drift.verdict, DriftVerdict::kValid);
  EXPECT_EQ(report.action, DriftVerdict::kRefit);
  EXPECT_TRUE(report.pca_drift_escalated);
  EXPECT_GT(report.pca_drift, 0.0);
  // Past the limit the incremental basis frame itself is suspect, so the
  // refit is cold: the pca stage re-runs and only the fold books an update.
  EXPECT_FALSE(report.pca_incremental_refit);
  const StageCounters after = pipeline.analysis().stage_counters;
  EXPECT_EQ(after.pca, before.pca + 1);
  EXPECT_EQ(after.pca_incremental, before.pca_incremental + 1);
  expect_consistent_population(pipeline);
}

TEST(PipelineIngestPca, PolicyNeverVetoesBasisDriftEscalation) {
  FlareConfig config = testing::small_flare_config();
  config.drift = always_valid();
  config.pca_update = PcaUpdatePolicy::kAuto;
  config.drift.pca_drift_limit = 0.0;
  FlarePipeline pipeline(config);
  pipeline.fit(testing::small_scenario_set());
  const StageCounters before = pipeline.analysis().stage_counters;

  const IngestReport report =
      pipeline.ingest(make_batch(20, 117), RefitPolicy::kNever);

  EXPECT_EQ(report.action, DriftVerdict::kValid);
  EXPECT_FALSE(report.pca_drift_escalated);
  const StageCounters after = pipeline.analysis().stage_counters;
  EXPECT_EQ(after.upstream_total(), before.upstream_total());
  expect_consistent_population(pipeline);
}

TEST(PipelineIngestPca, DefaultPolicyStillTracksDriftTelemetry) {
  const auto pipeline = fitted_with(always_valid());
  const std::size_t before = pipeline->analysis().stage_counters.pca_incremental;

  const dcsim::ScenarioSet batch = make_batch(20, 119);
  const IngestReport report = pipeline->ingest(batch);

  // Even in the default refit mode the tracked basis folds every batch so the
  // operator sees basis drift alongside the distance/coverage verdict.
  EXPECT_EQ(report.pca_update.batch_rows, batch.size());
  EXPECT_EQ(report.pca_update.total_rows,
            testing::small_scenario_set().size() + batch.size());
  EXPECT_GE(report.pca_drift, 0.0);
  EXPECT_LE(report.pca_drift, 1.0);
  EXPECT_GE(report.pca_update.mean_shift, 0.0);
  EXPECT_FALSE(report.pca_incremental_refit);
  EXPECT_EQ(pipeline->analysis().stage_counters.pca_incremental, before + 1);
}

/// A base population large enough that the covariance spectrum (85 metrics)
/// is well determined. At the 150-scenario test scale the trailing kept
/// components are near-degenerate, so the frozen-frame splice legitimately
/// diverges from a cold refit (basis drift ~0.6) — which is the situation the
/// kAuto drift gate exists to escalate out of, not a regression to assert on.
const dcsim::ScenarioSet& statistical_scenario_set() {
  static const dcsim::ScenarioSet kSet = [] {
    dcsim::SubmissionConfig config;
    config.target_distinct_scenarios = 450;
    return dcsim::generate_scenario_set(config, dcsim::default_machine());
  }();
  return kSet;
}

TEST(PipelineIngestPcaProperty, IncrementalRefitMatchesColdRefitClusters) {
  // The statistical regression the incremental splice must pass: absorbing a
  // randomized batch via the spliced basis lands (almost) every scenario in
  // the same cluster as a full cold refit over the identical population.
  FLARE_CHECK_PROPERTY(4, 0x1A6u, [](stats::Rng& rng, double scale) {
    const std::size_t batch_rows =
        std::max<std::size_t>(8, static_cast<std::size_t>(24 * scale));
    const dcsim::ScenarioSet batch = make_batch(batch_rows, rng.next());

    FlareConfig config = testing::small_flare_config();
    config.drift = always_refit();
    config.pca_update = PcaUpdatePolicy::kIncremental;
    FlarePipeline incremental(config);
    incremental.fit(statistical_scenario_set());
    const IngestReport inc_report = incremental.ingest(batch);
    ASSERT_TRUE(inc_report.pca_incremental_refit);
    EXPECT_LT(inc_report.pca_drift, 1.0);

    config.pca_update = PcaUpdatePolicy::kRefit;
    FlarePipeline cold(config);
    cold.fit(statistical_scenario_set());
    const IngestReport cold_report = cold.ingest(batch);
    ASSERT_EQ(cold_report.action, DriftVerdict::kRefit);

    ASSERT_EQ(incremental.analysis().chosen_k, cold.analysis().chosen_k);
    const double agreement =
        co_membership_agreement(incremental.analysis().clustering.assignment,
                                cold.analysis().clustering.assignment);
    EXPECT_GE(agreement, 0.8);
  });
}

TEST(PipelineIngest, ValidatesItsInputs) {
  FlarePipeline unfitted(testing::small_flare_config());
  EXPECT_THROW(unfitted.ingest(make_batch(5, 1)), std::invalid_argument);
  const auto pipeline = fitted_with(always_valid());
  EXPECT_THROW(pipeline->ingest(dcsim::ScenarioSet{}), std::invalid_argument);
}

// A NaN, infinite or negative batch weight is refused before profiling,
// under every policy, with a FaultError naming the row; the fitted state is
// untouched, so a clean batch still ingests afterwards.
TEST(PipelineIngest, RejectsNonFiniteOrNegativeBatchWeights) {
  const auto pipeline = fitted_with(always_valid());
  const std::size_t base_rows = pipeline->scenario_set().size();
  for (const RefitPolicy policy :
       {RefitPolicy::kNever, RefitPolicy::kAuto, RefitPolicy::kAlways}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -1.0}) {
      dcsim::ScenarioSet batch = make_batch(20, 99);
      batch.scenarios[7].observation_weight = bad;
      try {
        (void)pipeline->ingest(batch, policy);
        ADD_FAILURE() << "weight " << bad << " was accepted";
      } catch (const FaultError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "FlarePipeline::ingest: batch row 7 has weight"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(pipeline->scenario_set().size(), base_rows);
    }
  }
  (void)pipeline->ingest(make_batch(20, 99), RefitPolicy::kNever);
  expect_consistent_population(*pipeline);
}

}  // namespace
}  // namespace flare::core
