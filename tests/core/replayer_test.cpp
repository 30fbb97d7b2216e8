#include "core/replayer.hpp"

#include <gtest/gtest.h>

namespace flare::core {
namespace {

dcsim::ColocationScenario scenario_with(std::size_t id) {
  dcsim::ColocationScenario s;
  s.id = id;
  s.mix.add(dcsim::JobType::kDataServing, 2);
  s.mix.add(dcsim::JobType::kLpXalancbmk, 3);
  return s;
}

class ReplayerTest : public ::testing::Test {
 protected:
  ImpactModel impact_{dcsim::default_machine()};
  Replayer replayer_{impact_};
};

TEST_F(ReplayerTest, BillsDistinctScenarioFeaturePairsOnce) {
  const dcsim::ColocationScenario a = scenario_with(1);
  const dcsim::ColocationScenario b = scenario_with(2);
  (void)replayer_.replay_scenario_measured(a, feature_dvfs_cap());
  (void)replayer_.replay_scenario_measured(a, feature_dvfs_cap());  // same pair
  (void)replayer_.replay_scenario_measured(b, feature_dvfs_cap());
  (void)replayer_.replay_scenario_measured(a, feature_smt_off());   // new feature
  EXPECT_EQ(replayer_.distinct_scenario_replays(), 3u);
  EXPECT_EQ(replayer_.total_replays(), 4u);
}

TEST_F(ReplayerTest, ScenarioImpactMatchesImpactModelInTestbedContext) {
  const dcsim::ColocationScenario s = scenario_with(7);
  const double via_replayer =
      replayer_.replay_scenario_measured(s, feature_dvfs_cap()).impact_pct;
  const double direct = impact_.scenario_impact_pct(s.mix, feature_dvfs_cap(),
                                                    MeasurementContext::kTestbed);
  EXPECT_DOUBLE_EQ(via_replayer, direct);
}

TEST_F(ReplayerTest, JobImpactMatchesImpactModel) {
  const dcsim::ColocationScenario s = scenario_with(9);
  const double via_replayer =
      replayer_
          .replay_job_measured(dcsim::JobType::kDataServing, s,
                               feature_cache_sizing())
          .impact_pct;
  const double direct =
      impact_.job_impact_pct(dcsim::JobType::kDataServing, s.mix,
                             feature_cache_sizing(), MeasurementContext::kTestbed);
  EXPECT_DOUBLE_EQ(via_replayer, direct);
  EXPECT_EQ(replayer_.distinct_scenario_replays(), 1u);
}

TEST_F(ReplayerTest, JobImpactRequiresJobPresence) {
  const dcsim::ColocationScenario s = scenario_with(11);
  EXPECT_THROW((void)replayer_.replay_job_measured(dcsim::JobType::kWebSearch,
                                                  s, feature_dvfs_cap()),
               std::invalid_argument);
}

TEST_F(ReplayerTest, FreshReplayerHasZeroCost) {
  EXPECT_EQ(replayer_.distinct_scenario_replays(), 0u);
  EXPECT_EQ(replayer_.total_replays(), 0u);
}

// Regression: the cost ledger used to key on (scenario id, feature NAME), so
// two different features sharing a name deduped into one bill even though
// they are distinct testbed setups. The key is the feature's content
// fingerprint now.
TEST_F(ReplayerTest, DistinctFeaturesSharingANameBillSeparately) {
  const dcsim::ColocationScenario s = scenario_with(1);
  const Feature cap_a("capped", "2.0 GHz ceiling", [](dcsim::MachineConfig m) {
    m.max_freq_ghz = 2.0;
    return m;
  });
  const Feature cap_b("capped", "1.5 GHz ceiling", [](dcsim::MachineConfig m) {
    m.max_freq_ghz = 1.5;
    return m;
  });
  (void)replayer_.replay_scenario_measured(s, cap_a);
  (void)replayer_.replay_scenario_measured(s, cap_b);
  EXPECT_EQ(replayer_.distinct_scenario_replays(), 2u);
  EXPECT_EQ(replayer_.total_replays(), 2u);

  // And the converse: same content under different names is ONE testbed
  // setup, so it still dedupes.
  const Feature cap_c("capped-again", "2.0 GHz ceiling", [](dcsim::MachineConfig m) {
    m.max_freq_ghz = 2.0;
    return m;
  });
  (void)replayer_.replay_scenario_measured(s, cap_c);
  EXPECT_EQ(replayer_.distinct_scenario_replays(), 2u);
  EXPECT_EQ(replayer_.total_replays(), 3u);
}

TEST_F(ReplayerTest, CleanPathReportsSingleCleanAttempt) {
  const dcsim::ColocationScenario s = scenario_with(3);
  const ReplayMeasurement m = replayer_.replay_scenario_measured(s, feature_dvfs_cap());
  EXPECT_EQ(m.outcome, ReplayOutcome::kClean);
  EXPECT_EQ(m.attempts, 1);
  EXPECT_EQ(m.failed_attempts, 0);
  EXPECT_EQ(m.measurements, 1);
  EXPECT_EQ(m.ci_halfwidth_pp, 0.0);
  EXPECT_EQ(replayer_.failed_replays(), 0u);
  EXPECT_DOUBLE_EQ(replayer_.simulated_seconds(), replayer_.policy().nominal_seconds);
  ASSERT_EQ(replayer_.health_log().size(), 1u);
  EXPECT_EQ(replayer_.health_log()[0].scenario_id, 3u);
  EXPECT_EQ(replayer_.health_log()[0].outcome, ReplayOutcome::kClean);
}

}  // namespace
}  // namespace flare::core
