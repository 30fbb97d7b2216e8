// Unit tests for the testbed fault injector (dcsim::ReplayFaultModel) and the
// Replayer's fault-tolerant attempt loop: deterministic streams, bounded
// retries with seeded backoff, the deadline watchdog, reading validation, and
// the CI-gated repeat measurement.
#include <gtest/gtest.h>

#include <cmath>

#include "core/replayer.hpp"
#include "dcsim/replay_faults.hpp"
#include "util/error.hpp"

namespace flare::core {
namespace {

dcsim::ColocationScenario scenario_with(std::size_t id) {
  dcsim::ColocationScenario s;
  s.id = id;
  s.mix.add(dcsim::JobType::kDataServing, 2);
  s.mix.add(dcsim::JobType::kLpXalancbmk, 3);
  return s;
}

TEST(ReplayFaultModelTest, DefaultConstructedIsInactive) {
  const dcsim::ReplayFaultModel model;
  EXPECT_FALSE(model.active());
  EXPECT_FALSE(model.lose_machine("DS:2"));
  EXPECT_EQ(model.attempt_fault("DS:2", 42, 0).kind, dcsim::ReplayFaultKind::kNone);
}

TEST(ReplayFaultModelTest, EnabledWithAllZeroRatesIsStillInactive) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  const dcsim::ReplayFaultModel model(options);
  EXPECT_FALSE(model.active());
}

TEST(ReplayFaultModelTest, RejectsOutOfRangeRates) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.hang_rate = 1.5;
  EXPECT_THROW(dcsim::ReplayFaultModel{options}, std::invalid_argument);
  options.hang_rate = 0.6;
  options.crash_rate = 0.6;  // per-attempt classes must partition one draw
  EXPECT_THROW(dcsim::ReplayFaultModel{options}, std::invalid_argument);
}

TEST(ReplayFaultModelTest, StreamsAreDeterministicPerKeyFeatureAttempt) {
  const auto options = dcsim::ReplayFaultOptions::uniform(0.2, 0xABCDull);
  const dcsim::ReplayFaultModel a(options);
  const dcsim::ReplayFaultModel b(options);
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto fa = a.attempt_fault("DS:2|WS:1", 7, attempt);
    const auto fb = b.attempt_fault("DS:2|WS:1", 7, attempt);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.magnitude, fb.magnitude);
  }
  EXPECT_EQ(a.lose_machine("DS:2|WS:1"), b.lose_machine("DS:2|WS:1"));
}

TEST(ReplayFaultModelTest, DifferentSeedsGiveDifferentStreams) {
  const dcsim::ReplayFaultModel a(dcsim::ReplayFaultOptions::uniform(0.2, 1));
  const dcsim::ReplayFaultModel b(dcsim::ReplayFaultOptions::uniform(0.2, 2));
  int differing = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (a.attempt_fault("DS:2", 7, attempt).kind !=
        b.attempt_fault("DS:2", 7, attempt).kind) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(ReplayFaultModelTest, RatesRoughlyMatchOverManyDraws) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.hang_rate = 0.1;
  options.crash_rate = 0.1;
  options.invalid_rate = 0.1;
  options.noise_spike_rate = 0.1;
  const dcsim::ReplayFaultModel model(options);
  int faulty = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (model.attempt_fault("DS:2", static_cast<std::uint64_t>(i), 0).kind !=
        dcsim::ReplayFaultKind::kNone) {
      ++faulty;
    }
  }
  const double observed = static_cast<double>(faulty) / trials;
  EXPECT_NEAR(observed, 0.4, 0.05);
}

TEST(ReplayFaultModelTest, CorruptReadingMatchesKind) {
  const dcsim::ReplayFaultModel model(dcsim::ReplayFaultOptions::uniform(0.2));
  dcsim::ReplayAttemptFault invalid{dcsim::ReplayFaultKind::kInvalidReading, 0.1};
  EXPECT_TRUE(std::isnan(model.corrupt_reading(5.0, invalid)));
  invalid.magnitude = 0.5;
  EXPECT_LT(model.corrupt_reading(5.0, invalid), -1e3);
  invalid.magnitude = 0.9;
  EXPECT_GT(model.corrupt_reading(5.0, invalid), 1e3);
  const dcsim::ReplayAttemptFault spike{dcsim::ReplayFaultKind::kNoiseSpike, 1.25};
  EXPECT_DOUBLE_EQ(model.corrupt_reading(5.0, spike), 6.25);
  const dcsim::ReplayAttemptFault none{dcsim::ReplayFaultKind::kNone, 0.0};
  EXPECT_DOUBLE_EQ(model.corrupt_reading(5.0, none), 5.0);
}

class ReplayerLoopTest : public ::testing::Test {
 protected:
  static Replayer make(dcsim::ReplayFaultOptions options, ReplayPolicy policy = {}) {
    return Replayer(impact(), policy, dcsim::ReplayFaultModel(options));
  }
  static const ImpactModel& impact() {
    static const ImpactModel kImpact{dcsim::default_machine()};
    return kImpact;
  }
};

TEST_F(ReplayerLoopTest, AllInvalidReadingsExhaustRetriesAndFail) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.invalid_rate = 1.0;
  Replayer replayer = make(options);
  const ReplayMeasurement m =
      replayer.replay_scenario_measured(scenario_with(1), feature_dvfs_cap());
  EXPECT_EQ(m.outcome, ReplayOutcome::kUnreplayable);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.attempts, replayer.policy().max_retries + 1);
  EXPECT_EQ(m.failed_attempts, m.attempts);
  EXPECT_EQ(m.measurements, 0);
  EXPECT_EQ(replayer.failed_replays(), static_cast<std::size_t>(m.attempts));
  // Backoffs between failures put the simulated clock past pure run time.
  EXPECT_GT(m.simulated_seconds,
            replayer.policy().nominal_seconds * static_cast<double>(m.attempts));
}

TEST_F(ReplayerLoopTest, HangsAreKilledAtTheDeadline) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.hang_rate = 1.0;
  Replayer replayer = make(options);
  const ReplayMeasurement m =
      replayer.replay_scenario_measured(scenario_with(2), feature_dvfs_cap());
  EXPECT_EQ(m.outcome, ReplayOutcome::kUnreplayable);
  // Every attempt burned exactly the watchdog deadline (magnitudes are always
  // >= 8x nominal, far past the default 900 s deadline), plus backoff waits —
  // never the unbounded hang duration.
  const double run_time =
      replayer.policy().deadline_seconds * static_cast<double>(m.attempts);
  EXPECT_GE(m.simulated_seconds, run_time);
  EXPECT_LT(m.simulated_seconds, run_time + 16.0 * replayer.policy().backoff_base_seconds);
}

TEST_F(ReplayerLoopTest, NoiseSpikesAreRepeatMeasuredUntilTheCiGate) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.noise_spike_rate = 1.0;
  options.noise_spike_pp = 0.2;  // small spread: the gate closes quickly
  Replayer replayer = make(options);
  const dcsim::ColocationScenario s = scenario_with(3);
  const ReplayMeasurement m =
      replayer.replay_scenario_measured(s, feature_dvfs_cap());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.outcome, ReplayOutcome::kRecovered);
  EXPECT_GE(m.measurements, 2);  // the gate needs at least two readings
  EXPECT_EQ(m.failed_attempts, 0);
  const bool gate_met = m.ci_halfwidth_pp <= replayer.policy().target_ci_halfwidth_pp;
  const bool budget_spent = m.attempts == replayer.policy().replay_budget;
  EXPECT_TRUE(gate_met || budget_spent);
  // The median of the perturbed readings stays close to the clean impact.
  const double clean = impact().scenario_impact_pct(s.mix, feature_dvfs_cap(),
                                                    MeasurementContext::kTestbed);
  EXPECT_NEAR(m.impact_pct, clean, 4.0 * options.noise_spike_pp);
}

TEST_F(ReplayerLoopTest, LostMachineFailsEveryAttempt) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.machine_loss_rate = 1.0;
  Replayer replayer = make(options);
  const ReplayMeasurement m =
      replayer.replay_scenario_measured(scenario_with(4), feature_dvfs_cap());
  EXPECT_EQ(m.outcome, ReplayOutcome::kUnreplayable);
  EXPECT_EQ(m.measurements, 0);
  // A lost machine fails fast (no full nominal runs, no deadline burns).
  EXPECT_LT(m.simulated_seconds,
            replayer.policy().nominal_seconds * static_cast<double>(m.attempts));
}

TEST_F(ReplayerLoopTest, MeasurementsAreDeterministicPerSeed) {
  const auto options = dcsim::ReplayFaultOptions::uniform(0.15, 0x5EEDull);
  Replayer a = make(options);
  Replayer b = make(options);
  for (std::size_t id = 0; id < 6; ++id) {
    const ReplayMeasurement ma =
        a.replay_scenario_measured(scenario_with(id), feature_cache_sizing());
    const ReplayMeasurement mb =
        b.replay_scenario_measured(scenario_with(id), feature_cache_sizing());
    EXPECT_EQ(ma.impact_pct, mb.impact_pct);
    EXPECT_EQ(ma.attempts, mb.attempts);
    EXPECT_EQ(ma.failed_attempts, mb.failed_attempts);
    EXPECT_EQ(ma.outcome, mb.outcome);
    EXPECT_EQ(ma.simulated_seconds, mb.simulated_seconds);
  }
  EXPECT_EQ(a.total_replays(), b.total_replays());
  EXPECT_EQ(a.simulated_seconds(), b.simulated_seconds());
}

TEST_F(ReplayerLoopTest, EveryAttemptIsBilled) {
  dcsim::ReplayFaultOptions options;
  options.enabled = true;
  options.invalid_rate = 1.0;
  Replayer replayer = make(options);
  const ReplayMeasurement m =
      replayer.replay_scenario_measured(scenario_with(5), feature_smt_off());
  EXPECT_EQ(replayer.total_replays(), static_cast<std::size_t>(m.attempts));
  EXPECT_EQ(replayer.distinct_scenario_replays(), 1u);  // one scenario setup
  ASSERT_EQ(replayer.health_log().size(), 1u);
  EXPECT_EQ(replayer.health_log()[0].attempts, m.attempts);
  EXPECT_EQ(replayer.health_log()[0].outcome, ReplayOutcome::kUnreplayable);
}

TEST_F(ReplayerLoopTest, PolicyIsValidated) {
  ReplayPolicy bad;
  bad.deadline_seconds = 1.0;  // below nominal_seconds
  EXPECT_THROW(Replayer(impact(), bad), std::invalid_argument);
  ReplayPolicy negative;
  negative.max_retries = -1;
  EXPECT_THROW(Replayer(impact(), negative), std::invalid_argument);
}

}  // namespace
}  // namespace flare::core
