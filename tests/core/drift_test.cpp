#include "core/drift.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "tests/core/test_env.hpp"
#include "util/error.hpp"

namespace flare::core {
namespace {

/// Profiles a scenario batch through the same (default) model the fitted
/// pipeline used.
metrics::MetricDatabase profile_batch(const dcsim::ScenarioSet& set,
                                      const dcsim::MachineConfig& machine,
                                      std::uint64_t stream = 0x0D47A) {
  const dcsim::InterferenceModel model;
  ProfilerConfig config;
  config.noise_stream = stream;
  const Profiler profiler(model, config);
  return profiler.profile(set, machine);
}

dcsim::ScenarioSet fresh_batch(std::uint64_t seed, std::size_t count,
                               const dcsim::MachineConfig& machine) {
  dcsim::SubmissionConfig sub;
  sub.seed = seed;
  sub.target_distinct_scenarios = count;
  return dcsim::generate_scenario_set(sub, machine);
}

class DriftTest : public ::testing::Test {
 protected:
  const AnalysisResult& analysis_ = testing::fitted_pipeline().analysis();
  DriftMonitor monitor_{analysis_};
};

TEST_F(DriftTest, SameDistributionIsValid) {
  // A fresh draw from the same datacenter (different seed, different noise
  // stream): same behaviour scale, weights within honest-sampling noise.
  const dcsim::ScenarioSet batch = fresh_batch(1234, 150, dcsim::default_machine());
  const DriftReport report =
      monitor_.inspect(profile_batch(batch, dcsim::default_machine(), 0xFEED));
  EXPECT_EQ(report.verdict, DriftVerdict::kValid)
      << "ratio " << report.distance_ratio << ", out-of-coverage "
      << report.out_of_coverage_fraction << ", shift " << report.weight_shift;
  EXPECT_LT(report.distance_ratio, 2.0);
}

TEST_F(DriftTest, SchedulerLikeShiftSuggestsReweight) {
  // Same behaviours, heavily skewed frequencies: keep only high-load
  // scenarios' weight large. The small test fit (8 clusters, 150 scenarios)
  // dilutes the TV signal, so this test calibrates the threshold down — the
  // defaults are tuned for production-sized batches (see DriftConfig docs).
  DriftConfig config;
  config.reweight_threshold = 0.4;
  const DriftMonitor monitor(analysis_, config);

  dcsim::ScenarioSet batch = fresh_batch(99, 150, dcsim::default_machine());
  for (auto& s : batch.scenarios) {
    const double load = static_cast<double>(s.mix.vcpus()) /
                        dcsim::default_machine().scheduling_vcpus();
    s.observation_weight = load > 0.7 ? 100.0 : 0.01;
  }
  const DriftReport report =
      monitor.inspect(profile_batch(batch, dcsim::default_machine()));
  EXPECT_EQ(report.verdict, DriftVerdict::kReweight)
      << "shift " << report.weight_shift << ", ratio " << report.distance_ratio;
  EXPECT_GT(report.weight_shift, 0.4);
  // The same skewed batch against relaxed thresholds reads as valid — the
  // distance scale did not move.
  EXPECT_EQ(monitor_.inspect(profile_batch(batch, dcsim::default_machine())).verdict,
            DriftVerdict::kValid);
}

TEST_F(DriftTest, ShapeChangeSuggestsRefit) {
  // Profile the same mixes on a very different machine (tiny LLC, low clock):
  // the metric vectors leave the fitted coverage.
  dcsim::MachineConfig mutated = dcsim::default_machine();
  mutated.llc_mb_per_socket = 4.0;
  mutated.max_freq_ghz = 1.4;
  mutated.mem_latency_ns = 160.0;
  const dcsim::ScenarioSet batch = fresh_batch(7, 150, dcsim::default_machine());
  const DriftReport report = monitor_.inspect(profile_batch(batch, mutated));
  EXPECT_EQ(report.verdict, DriftVerdict::kRefit)
      << "ratio " << report.distance_ratio << ", out-of-coverage "
      << report.out_of_coverage_fraction;
  EXPECT_GT(report.distance_ratio, 2.0);
  EXPECT_FALSE(report.uncovered_rows.empty());
}

TEST_F(DriftTest, ReportInternalsAreConsistent) {
  const dcsim::ScenarioSet batch = fresh_batch(55, 100, dcsim::default_machine());
  const DriftReport report =
      monitor_.inspect(profile_batch(batch, dcsim::default_machine()));
  EXPECT_EQ(report.coverage_radius_sq.size(), analysis_.chosen_k);
  for (const double r : report.coverage_radius_sq) EXPECT_GE(r, 0.0);
  double covered = 0.0;
  for (const double w : report.fresh_cluster_weights) covered += w;
  EXPECT_NEAR(covered, 1.0, 1e-9);
  EXPECT_GT(report.distance_ratio, 0.0);
  EXPECT_GE(report.weight_shift, 0.0);
  EXPECT_LE(report.weight_shift, 1.0);
  for (const std::size_t r : report.uncovered_rows) EXPECT_LT(r, batch.size());
}

TEST_F(DriftTest, ValidatesConfigAndInput) {
  DriftConfig bad;
  bad.coverage_quantile = 0.0;
  EXPECT_THROW(DriftMonitor(analysis_, bad), std::invalid_argument);
  bad = DriftConfig{};
  bad.refit_distance_ratio = 1.0;
  EXPECT_THROW(DriftMonitor(analysis_, bad), std::invalid_argument);
  bad = DriftConfig{};
  bad.refit_coverage_fraction = 0.0;
  EXPECT_THROW(DriftMonitor(analysis_, bad), std::invalid_argument);
  EXPECT_THROW((void)monitor_.inspect(metrics::MetricDatabase{}),
               std::invalid_argument);

  // A non-finite metric cell is refused by position, not scored.
  const dcsim::MachineConfig machine = dcsim::default_machine();
  const metrics::MetricDatabase clean =
      profile_batch(fresh_batch(0x5EED, 40, machine), machine);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    metrics::MetricDatabase batch = clean;
    batch.row_mutable(3).values[7] = bad;
    try {
      (void)monitor_.inspect(batch);
      ADD_FAILURE() << "inspect accepted " << bad;
    } catch (const FaultError& e) {
      EXPECT_NE(std::string(e.what()).find("row 3, column 7"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(DriftTest, VerdictNames) {
  EXPECT_EQ(to_string(DriftVerdict::kValid), "valid");
  EXPECT_EQ(to_string(DriftVerdict::kReweight), "reweight");
  EXPECT_EQ(to_string(DriftVerdict::kRefit), "refit");
}

}  // namespace
}  // namespace flare::core
