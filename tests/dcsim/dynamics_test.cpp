// The non-stationarity layer (DESIGN.md §17): spec parsing with positioned
// errors, the stationarity (bit-identity) contract, episode-schedule
// consistency across streaming windows, shape scoping, and the deterministic
// counter overlays / upgraded profiles.
#include "dcsim/dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dcsim/job_catalog.hpp"
#include "dcsim/machine_config.hpp"
#include "dcsim/submission.hpp"
#include "metrics/metric_catalog.hpp"
#include "util/error.hpp"

namespace flare::dcsim {
namespace {

TEST(DynamicsSpec, ParsesEveryGeneratorAndKey) {
  const WorkloadDynamics d = parse_dynamics_spec(
      "diurnal:period=12:amp=0.4:hp_amp=0.1:phase=3,"
      "flash:rate=5:dur=1.5:mult=6:short=0.25,"
      "upgrade:at=48:frac=0.75:shift=0.3,"
      "anomaly:rate=2:dur=4:intensity=1.1:frac=0.5:shape=dense");
  EXPECT_TRUE(d.any());
  EXPECT_TRUE(d.diurnal.enabled);
  EXPECT_DOUBLE_EQ(d.diurnal.period_hours, 12.0);
  EXPECT_DOUBLE_EQ(d.diurnal.arrival_amplitude, 0.4);
  EXPECT_DOUBLE_EQ(d.diurnal.hp_amplitude, 0.1);
  EXPECT_DOUBLE_EQ(d.diurnal.phase_hours, 3.0);
  EXPECT_TRUE(d.flash.enabled);
  EXPECT_DOUBLE_EQ(d.flash.episodes_per_khour, 5.0);
  EXPECT_DOUBLE_EQ(d.flash.duration_hours, 1.5);
  EXPECT_DOUBLE_EQ(d.flash.arrival_multiplier, 6.0);
  EXPECT_DOUBLE_EQ(d.flash.short_job_factor, 0.25);
  EXPECT_TRUE(d.upgrade.enabled);
  EXPECT_DOUBLE_EQ(d.upgrade.at_hours, 48.0);
  EXPECT_DOUBLE_EQ(d.upgrade.migrated_fraction, 0.75);
  EXPECT_DOUBLE_EQ(d.upgrade.shift, 0.3);
  EXPECT_TRUE(d.anomaly.enabled);
  EXPECT_DOUBLE_EQ(d.anomaly.episodes_per_khour, 2.0);
  EXPECT_DOUBLE_EQ(d.anomaly.duration_hours, 4.0);
  EXPECT_DOUBLE_EQ(d.anomaly.intensity, 1.1);
  EXPECT_DOUBLE_EQ(d.anomaly.machine_fraction, 0.5);
  EXPECT_EQ(d.anomaly.shape, "dense");
  EXPECT_EQ(d.shape_scopes(), std::vector<std::string>{"dense"});
}

/// Every malformed spec must throw a ParseError whose message names the
/// offending entry or token, so the CLI caller can print it verbatim.
TEST(DynamicsSpec, ErrorsArePositioned) {
  const auto expect_error = [](const std::string& spec,
                               const std::string& fragment) {
    try {
      (void)parse_dynamics_spec(spec);
      FAIL() << "spec '" << spec << "' parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "error for '" << spec << "' was: " << e.what();
    }
  };
  expect_error("", "spec is empty");
  expect_error("tsunami:rate=1", "unknown generator 'tsunami'");
  expect_error("diurnal:windspeed=3", "entry 'diurnal': unknown key");
  expect_error("flash:rate=fast", "offending token 'fast'");
  expect_error("flash:rate", "expected key=value");
  expect_error("diurnal,diurnal", "duplicate entry 'diurnal'");
  expect_error("diurnal:amp=1.5", "'amp' must be in [0, 1)");
  expect_error("anomaly:frac=0", "'frac' must be in (0, 1]");
  expect_error("flash:mult=0.5", "'mult' must be >= 1");
  expect_error("diurnal,,flash", "empty entry");
}

/// The determinism contract: with every generator disabled the submission
/// loop must consume the exact RNG stream of the stationary simulator —
/// changing the (unused) dynamics seed or start hour cannot move a single
/// scenario.
TEST(Dynamics, DisabledLayerIsBitIdentical) {
  SubmissionConfig config;
  config.target_distinct_scenarios = 80;
  config.seed = 21;
  const ScenarioSet stationary =
      generate_scenario_set(config, default_machine());

  config.dynamics.seed = 0xABCDEF;
  config.dynamics.start_hour = 500.0;
  const ScenarioSet still_stationary =
      generate_scenario_set(config, default_machine());

  ASSERT_EQ(stationary.size(), still_stationary.size());
  for (std::size_t i = 0; i < stationary.size(); ++i) {
    EXPECT_EQ(stationary.scenarios[i].mix.key(),
              still_stationary.scenarios[i].mix.key());
    EXPECT_DOUBLE_EQ(stationary.scenarios[i].observation_weight,
                     still_stationary.scenarios[i].observation_weight);
    EXPECT_FALSE(still_stationary.scenarios[i].dynamic_tagged());
  }
}

TEST(Dynamics, ForShapeDisablesScopedGenerators) {
  WorkloadDynamics d = parse_dynamics_spec(
      "diurnal:shape=small,flash,anomaly:shape=default");
  const WorkloadDynamics on_default = d.for_shape("default");
  EXPECT_FALSE(on_default.diurnal.enabled);  // scoped to small
  EXPECT_TRUE(on_default.flash.enabled);     // unscoped: everywhere
  EXPECT_TRUE(on_default.anomaly.enabled);
  const WorkloadDynamics on_small = d.for_shape("small");
  EXPECT_TRUE(on_small.diurnal.enabled);
  EXPECT_TRUE(on_small.flash.enabled);
  EXPECT_FALSE(on_small.anomaly.enabled);
  const std::vector<std::string> scopes = d.shape_scopes();
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_EQ(scopes[0], "small");
  EXPECT_EQ(scopes[1], "default");
}

/// Streaming-window consistency: a plan built for a later window must see
/// the identical episode timeline over the shared absolute hours, because
/// schedules are a pure function of dynamics.seed regenerated from hour 0.
TEST(Dynamics, EpisodeScheduleIsAPrefixPropertyAcrossWindows) {
  WorkloadDynamics d = parse_dynamics_spec(
      "anomaly:rate=40:dur=3:frac=0.5,flash:rate=30:dur=2:mult=4");
  d.seed = 77;
  const int machines = 8;
  const DynamicsPlan full(d, machines, 200.0);

  WorkloadDynamics later = d;
  later.start_hour = 100.0;
  const DynamicsPlan window(later, machines, 100.0);

  for (double hour = 100.0; hour < 200.0; hour += 0.5) {
    EXPECT_DOUBLE_EQ(full.arrival_factor(hour), window.arrival_factor(hour))
        << "at hour " << hour;
    EXPECT_DOUBLE_EQ(full.duration_scale(hour), window.duration_scale(hour));
    for (int m = 0; m < machines; ++m) {
      EXPECT_EQ(full.anomaly_at(hour, m).episode,
                window.anomaly_at(hour, m).episode)
          << "at hour " << hour << " machine " << m;
    }
  }
}

TEST(Dynamics, UpgradeCutoverMigratesTheConfiguredFraction) {
  WorkloadDynamics d = parse_dynamics_spec("upgrade:at=10:frac=0.5:shift=0.2");
  const DynamicsPlan plan(d, 8, 100.0);
  int migrated_before = 0, migrated_after = 0;
  for (int m = 0; m < 8; ++m) {
    migrated_before += plan.profile_version(5.0, m) == 2 ? 1 : 0;
    migrated_after += plan.profile_version(50.0, m) == 2 ? 1 : 0;
  }
  EXPECT_EQ(migrated_before, 0);  // before the cutover nothing moved
  EXPECT_EQ(migrated_after, 4);   // round(0.5 * 8)
}

/// The overlay's cluster coherence: two rows tagged with the same episode
/// move every metric by the same factor; occupancy columns never move; an
/// untagged row is untouched.
TEST(Dynamics, OverlayIsEpisodeCoherentAndSparesOccupancy) {
  const metrics::MetricCatalog& catalog = metrics::MetricCatalog::standard();
  std::vector<double> base(catalog.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = 1.0 + static_cast<double>(i);
  }

  ColocationScenario tagged_a;
  tagged_a.anomaly_episode = 3;
  tagged_a.anomaly_intensity = 0.8;
  ColocationScenario tagged_b = tagged_a;
  ColocationScenario untagged;

  std::vector<double> row_a = base, row_b = base, row_plain = base;
  // Different starting values must still yield the same *factor*.
  for (double& v : row_b) v *= 2.0;
  apply_dynamics_overlay(row_a, catalog, tagged_a);
  apply_dynamics_overlay(row_b, catalog, tagged_b);
  apply_dynamics_overlay(row_plain, catalog, untagged);

  bool any_moved = false;
  for (const metrics::MetricInfo& info : catalog.metrics()) {
    EXPECT_DOUBLE_EQ(row_plain[info.index], base[info.index]);
    if (info.category == metrics::MetricCategory::kOccupancy) {
      EXPECT_DOUBLE_EQ(row_a[info.index], base[info.index]);
      continue;
    }
    const double factor_a = row_a[info.index] / base[info.index];
    const double factor_b = row_b[info.index] / (2.0 * base[info.index]);
    EXPECT_NEAR(factor_a, factor_b, 1e-12) << info.name;
    EXPECT_LE(factor_a, std::exp(0.8) + 1e-12);
    EXPECT_GE(factor_a, std::exp(-0.8) - 1e-12);
    if (std::abs(factor_a - 1.0) > 1e-9) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

/// Distinct episodes distort in distinct directions — the property that
/// makes one episode a *coherent* clump the response layer can fence while
/// two episodes do not collapse into one.
TEST(Dynamics, DistinctEpisodesDistortInDistinctDirections) {
  const metrics::MetricCatalog& catalog = metrics::MetricCatalog::standard();
  std::vector<double> base(catalog.size(), 1.0);
  ColocationScenario ep1, ep2;
  ep1.anomaly_episode = 1;
  ep1.anomaly_intensity = 1.0;
  ep2.anomaly_episode = 2;
  ep2.anomaly_intensity = 1.0;
  std::vector<double> row1 = base, row2 = base;
  apply_dynamics_overlay(row1, catalog, ep1);
  apply_dynamics_overlay(row2, catalog, ep2);
  std::size_t differing = 0;
  for (const metrics::MetricInfo& info : catalog.metrics()) {
    if (info.category == metrics::MetricCategory::kOccupancy) continue;
    if (std::abs(row1[info.index] - row2[info.index]) > 1e-9) ++differing;
  }
  EXPECT_GT(differing, catalog.size() / 2);
}

TEST(Dynamics, DynamicsBatchWindowsAreDeterministicAndTagAfterCutover) {
  SubmissionConfig config;
  config.target_distinct_scenarios = 40;
  config.seed = 33;
  config.num_machines = 6;
  WorkloadDynamics d = parse_dynamics_spec("upgrade:at=6:frac=1:shift=0.3");
  d.seed = 5;

  const ScenarioSet w0a = generate_dynamics_batch(config, default_machine(), d,
                                                  /*index=*/0,
                                                  /*window_hours=*/6.0, 40);
  const ScenarioSet w0b = generate_dynamics_batch(config, default_machine(), d,
                                                  0, 6.0, 40);
  ASSERT_EQ(w0a.size(), w0b.size());
  for (std::size_t i = 0; i < w0a.size(); ++i) {
    EXPECT_EQ(w0a.scenarios[i].mix.key(), w0b.scenarios[i].mix.key());
    EXPECT_EQ(w0a.scenarios[i].profile_version,
              w0b.scenarios[i].profile_version);
    // Window 0 covers hours [0, 6) — before the cutover at hour 6.
    EXPECT_EQ(w0a.scenarios[i].profile_version, 1);
  }

  const ScenarioSet w1 = generate_dynamics_batch(config, default_machine(), d,
                                                 1, 6.0, 40);
  std::size_t upgraded = 0;
  for (const ColocationScenario& s : w1.scenarios) {
    if (s.profile_version == 2) ++upgraded;
  }
  EXPECT_GT(upgraded, 0u);  // window 1 covers [6, 12): past the cutover
}

}  // namespace
}  // namespace flare::dcsim
