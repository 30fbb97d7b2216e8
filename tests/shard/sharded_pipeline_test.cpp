// ShardedPipeline behaviour tests (ctest label `shard`):
//
//   1. A one-shape ShardedPipeline is bit-identical to a plain FlarePipeline
//      over the same rows — fit, evaluate, validation, per-job, ingest and
//      replay campaigns, clean and under replay faults. Sharding must cost
//      exactly nothing when the fleet is homogeneous; the CLI relies on it
//      to run every single-shape command as a one-shape fleet.
//   2. Drift isolation: a batch routed entirely to shape A leaves shape B's
//      pipeline untouched (no stage re-runs, centroids bit-equal).
//   3. Fan-in mass conservation: the fleet ledger sums to 1, with and
//      without replay faults.
//   4. Parallel shard fitting (shard_threads != 1) reproduces the serial
//      result bit-for-bit.
#include "core/sharded_pipeline.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/campaign.hpp"
#include "dcsim/replay_faults.hpp"
#include "tests/util/fleet_env.hpp"
#include "util/error.hpp"

namespace flare::core {
namespace {

dcsim::ScenarioSet default_shape_rows(std::uint64_t seed,
                                      std::size_t target = 150) {
  dcsim::SubmissionConfig config = testing::fleet_submission_config();
  config.seed = seed;
  config.target_distinct_scenarios = target;
  return dcsim::generate_scenario_set(config, dcsim::default_machine());
}

ShardedConfig one_shape_config(const FlareConfig& base =
                                    testing::shard_flare_config()) {
  ShardedConfig config;
  config.base = base;
  config.fleet.shapes.push_back({dcsim::machine_shape_by_name("default"), 4});
  return config;
}

/// The shard test config, clean or with every replay fault class at 20 %.
FlareConfig replay_config(bool faulty) {
  FlareConfig config = testing::shard_flare_config();
  if (faulty) config.replay_faults = dcsim::ReplayFaultOptions::uniform(0.20);
  return config;
}

void expect_ledgers_bit_identical(const ReplayLedger& a, const ReplayLedger& b) {
  EXPECT_EQ(a.direct_mass, b.direct_mass);
  EXPECT_EQ(a.fallback_mass, b.fallback_mass);
  EXPECT_EQ(a.quarantined_mass, b.quarantined_mass);
  EXPECT_EQ(a.pending_mass, b.pending_mass);
  EXPECT_EQ(a.total_attempts, b.total_attempts);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.fallback_probes, b.fallback_probes);
  EXPECT_EQ(a.measurement_uncertainty_pp, b.measurement_uncertainty_pp);
  EXPECT_EQ(a.quarantine_widening_pp, b.quarantine_widening_pp);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
}

void expect_estimates_bit_identical(const FeatureEstimate& a,
                                    const FeatureEstimate& b) {
  EXPECT_EQ(a.impact_pct, b.impact_pct);  // exact, not NEAR: bit-identity
  EXPECT_EQ(a.scenario_replays, b.scenario_replays);
  ASSERT_EQ(a.per_cluster.size(), b.per_cluster.size());
  for (std::size_t c = 0; c < a.per_cluster.size(); ++c) {
    EXPECT_EQ(a.per_cluster[c].impact_pct, b.per_cluster[c].impact_pct);
    EXPECT_EQ(a.per_cluster[c].weight, b.per_cluster[c].weight);
    EXPECT_EQ(a.per_cluster[c].representative_scenario,
              b.per_cluster[c].representative_scenario);
  }
}

void expect_analyses_bit_identical(const AnalysisResult& a,
                                   const AnalysisResult& b) {
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.representatives, b.representatives);
  EXPECT_EQ(a.cluster_weights, b.cluster_weights);
  EXPECT_EQ(a.clustering.assignment, b.clustering.assignment);
  EXPECT_EQ(a.clustering.centroids.data(), b.clustering.centroids.data());
}

TEST(OneShapeBitIdentity, FitAndEvaluateMatchFlarePipeline) {
  const dcsim::ScenarioSet rows = default_shape_rows(7);

  FlarePipeline plain(testing::shard_flare_config());
  plain.fit(rows);

  ShardedPipeline sharded(one_shape_config());
  sharded.fit(rows);  // mixed-set overload: split is the identity here
  ASSERT_EQ(sharded.num_shards(), 1u);
  ASSERT_TRUE(sharded.fitted());

  expect_analyses_bit_identical(plain.analysis(), sharded.shard(0).analysis());

  const FeatureEstimate direct = plain.evaluate(feature_dvfs_cap());
  const FleetEstimate fleet = sharded.evaluate(feature_dvfs_cap());
  ASSERT_EQ(fleet.per_shape.size(), 1u);
  EXPECT_EQ(fleet.per_shape[0].weight, 1.0);
  expect_estimates_bit_identical(direct, fleet.per_shape[0].estimate);
  EXPECT_EQ(fleet.impact_pct, direct.impact_pct);  // 1.0 · x == x exactly

  const ValidatedFeatureEstimate vd = plain.evaluate_with_validation(
      feature_cache_sizing());
  const ValidatedFleetEstimate vf =
      sharded.evaluate_with_validation(feature_cache_sizing());
  EXPECT_EQ(vf.estimate.impact_pct, vd.estimate.impact_pct);
  EXPECT_EQ(vf.validation_impact_pct, vd.validation_impact_pct);
  EXPECT_EQ(vf.uncertainty_pp, vd.uncertainty_pp);
}

TEST(OneShapeBitIdentity, IngestMatchesFlarePipeline) {
  const dcsim::ScenarioSet rows = default_shape_rows(7);
  const dcsim::ScenarioSet batch = default_shape_rows(99, 40);

  FlarePipeline plain(testing::shard_flare_config());
  plain.fit(rows);
  const IngestReport direct = plain.ingest(batch);

  ShardedPipeline sharded(one_shape_config());
  sharded.fit(rows);
  const FleetIngestReport fleet = sharded.ingest(batch);

  ASSERT_EQ(fleet.shards_touched(), 1u);
  ASSERT_TRUE(fleet.per_shape[0].has_value());
  const IngestReport& routed = *fleet.per_shape[0];
  EXPECT_EQ(routed.appended, direct.appended);
  EXPECT_EQ(routed.action, direct.action);
  EXPECT_EQ(routed.drift.verdict, direct.drift.verdict);
  EXPECT_EQ(routed.drift.distance_ratio, direct.drift.distance_ratio);
  EXPECT_EQ(routed.pca_drift, direct.pca_drift);
  expect_analyses_bit_identical(plain.analysis(), sharded.shard(0).analysis());
}

TEST(OneShapeBitIdentity, ValidationMatchesFlarePipelineUnderReplayFaults) {
  const dcsim::ScenarioSet rows = default_shape_rows(7);
  FlarePipeline plain(replay_config(/*faulty=*/true));
  plain.fit(rows);
  ShardedPipeline sharded(one_shape_config(replay_config(/*faulty=*/true)));
  sharded.fit(rows);

  const ValidatedFeatureEstimate vd =
      plain.evaluate_with_validation(feature_dvfs_cap());
  const ValidatedFleetEstimate vf =
      sharded.evaluate_with_validation(feature_dvfs_cap());
  EXPECT_EQ(vf.estimate.impact_pct, vd.estimate.impact_pct);
  EXPECT_EQ(vf.validation_impact_pct, vd.validation_impact_pct);
  EXPECT_EQ(vf.uncertainty_pp, vd.uncertainty_pp);
  ASSERT_EQ(vf.per_shape.size(), 1u);
  expect_estimates_bit_identical(vd.estimate, vf.per_shape[0].estimate.estimate);
  expect_ledgers_bit_identical(vd.estimate.replay, vf.estimate.replay);
}

TEST(OneShapeBitIdentity, PerJobMatchesFlarePipelineCleanAndFaulty) {
  const dcsim::ScenarioSet rows = default_shape_rows(7);
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "replay faults" : "clean");
    FlarePipeline plain(replay_config(faulty));
    plain.fit(rows);
    ShardedPipeline sharded(one_shape_config(replay_config(faulty)));
    sharded.fit(rows);

    std::size_t compared = 0;
    for (const dcsim::JobType job : dcsim::hp_job_types()) {
      bool present = false;
      for (const dcsim::ColocationScenario& s : rows.scenarios) {
        present = present || s.mix.count(job) > 0;
      }
      if (!present) continue;
      const PerJobEstimate direct =
          plain.evaluate_per_job(feature_cache_sizing(), job);
      const FleetPerJobEstimate fleet =
          sharded.evaluate_per_job(feature_cache_sizing(), job);
      EXPECT_EQ(fleet.impact_pct, direct.impact_pct);
      EXPECT_EQ(fleet.covered_weight, 1.0);
      ASSERT_TRUE(fleet.per_shape[0].estimate.has_value());
      EXPECT_EQ(fleet.per_shape[0].estimate->impact_pct, direct.impact_pct);
      EXPECT_EQ(fleet.scenario_replays, direct.scenario_replays);
      expect_ledgers_bit_identical(fleet.replay, direct.replay);
      ++compared;
    }
    EXPECT_GT(compared, 0u);
  }
}

TEST(OneShapeBitIdentity, CampaignMatchesFlarePipeline) {
  const dcsim::ScenarioSet rows = default_shape_rows(7);
  FlarePipeline plain(replay_config(/*faulty=*/true));
  plain.fit(rows);
  ShardedPipeline sharded(one_shape_config(replay_config(/*faulty=*/true)));
  sharded.fit(rows);

  CampaignConfig campaign;
  campaign.num_testbeds = 3;
  const CampaignState a = run_campaign(plain, feature_dvfs_cap(), campaign);
  const CampaignState b = run_campaign(sharded, feature_dvfs_cap(), campaign);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.impact_pct, b.impact_pct);
  EXPECT_EQ(a.band_pp, b.band_pp);
  EXPECT_EQ(a.units_completed, b.units_completed);
  EXPECT_EQ(a.units_failed, b.units_failed);
  EXPECT_EQ(a.distinct_replays, b.distinct_replays);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.total_busy_seconds, b.total_busy_seconds);
  expect_ledgers_bit_identical(a.ledger, b.ledger);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].impact_pct, b.checkpoints[i].impact_pct);
    EXPECT_EQ(a.checkpoints[i].band_pp, b.checkpoints[i].band_pp);
  }
}

TEST(DriftIsolation, BatchRoutedToShapeANeverTouchesShapeB) {
  ShardedConfig config;
  config.base = testing::shard_flare_config();
  config.fleet = testing::two_shape_fleet();
  ShardedPipeline pipeline(config);
  pipeline.fit(testing::two_shape_population());

  const StageCounters before = pipeline.shard(1).analysis().stage_counters;
  const linalg::Matrix centroids_before =
      pipeline.shard(1).analysis().clustering.centroids;

  // A batch of default-shape rows only: shard 0 absorbs it, shard 1 must not
  // run a single stage — its drift gate never even fires.
  const FleetIngestReport report = pipeline.ingest(default_shape_rows(31, 40));
  EXPECT_TRUE(report.per_shape[0].has_value());
  EXPECT_FALSE(report.per_shape[1].has_value());
  EXPECT_EQ(report.shards_touched(), 1u);

  const StageCounters after = pipeline.shard(1).analysis().stage_counters;
  EXPECT_EQ(after.refine, before.refine);
  EXPECT_EQ(after.standardize, before.standardize);
  EXPECT_EQ(after.pca, before.pca);
  EXPECT_EQ(after.whiten, before.whiten);
  EXPECT_EQ(after.cluster, before.cluster);
  EXPECT_EQ(after.representatives, before.representatives);
  EXPECT_EQ(pipeline.shard(1).analysis().clustering.centroids.data(),
            centroids_before.data());
}

TEST(FanInMass, CleanEvaluationConservesMassToOne) {
  ShardedPipeline& pipeline = testing::fitted_two_shape_pipeline();
  const FleetEstimate est = pipeline.evaluate(feature_dvfs_cap());
  EXPECT_NEAR(est.replay.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(est.replay.direct_mass, 1.0, 1e-9);  // failure-free: all direct
  double contribution = 0.0;
  for (const ShardFeatureEstimate& s : est.per_shape) {
    contribution += s.weight * s.estimate.impact_pct;
  }
  EXPECT_NEAR(est.impact_pct, contribution, 1e-12);
}

TEST(FanInMass, FaultyReplaysStillConserveMassToOne) {
  ShardedConfig config;
  config.base = testing::shard_flare_config();
  config.base.replay_faults = dcsim::ReplayFaultOptions::uniform(0.10);
  config.fleet = testing::two_shape_fleet();
  ShardedPipeline pipeline(config);
  pipeline.fit(testing::two_shape_population());

  const ValidatedFleetEstimate est =
      pipeline.evaluate_with_validation(feature_dvfs_cap());
  EXPECT_NEAR(est.estimate.replay.total_mass(), 1.0, 1e-9);
  EXPECT_GE(est.estimate.replay.direct_mass, 0.0);
  EXPECT_GE(est.estimate.replay.fallback_mass, 0.0);
  EXPECT_GE(est.estimate.replay.quarantined_mass, 0.0);
  EXPECT_GE(est.uncertainty_pp, 0.0);
  EXPECT_GE(est.upper(), est.lower());
}

TEST(ParallelShards, PoolFittingIsBitIdenticalToSerial) {
  ShardedConfig serial;
  serial.base = testing::shard_flare_config();
  serial.fleet = testing::two_shape_fleet();
  ShardedPipeline a(serial);
  a.fit(testing::two_shape_population());

  ShardedConfig pooled = serial;
  pooled.shard_threads = 0;  // one worker per hardware thread
  ShardedPipeline b(pooled);
  b.fit(testing::two_shape_population());

  for (std::size_t i = 0; i < a.num_shards(); ++i) {
    expect_analyses_bit_identical(a.shard(i).analysis(),
                                  b.shard(i).analysis());
  }
  const FleetEstimate ea = a.evaluate(feature_smt_off());
  const FleetEstimate eb = b.evaluate(feature_smt_off());
  EXPECT_EQ(ea.impact_pct, eb.impact_pct);
}

TEST(ShardedConfigValidation, RejectsDegenerateFleets) {
  ShardedConfig empty;
  empty.base = testing::shard_flare_config();
  EXPECT_THROW((ShardedPipeline(empty)), std::invalid_argument);

  ShardedConfig zero_machines;
  zero_machines.base = testing::shard_flare_config();
  zero_machines.fleet.shapes.push_back(
      {dcsim::machine_shape_by_name("default"), 0});
  EXPECT_THROW((ShardedPipeline(zero_machines)), std::invalid_argument);

  ShardedConfig duplicate;
  duplicate.base = testing::shard_flare_config();
  duplicate.fleet.shapes.push_back({dcsim::machine_shape_by_name("default"), 1});
  duplicate.fleet.shapes.push_back({dcsim::machine_shape_by_name("default"), 1});
  EXPECT_THROW((ShardedPipeline(duplicate)), std::invalid_argument);
}

}  // namespace
}  // namespace flare::core
