// Decision pin for the ingest path. A 48-window drifting stream over a
// three-shape fleet runs under each PcaUpdatePolicy; every shard's action and
// PCA-policy flags, and under kRefit the checkpoint estimates and bands, are
// hashed. The constant was captured with the cyclic-Jacobi tracked-basis
// fold and the name-keyed counter synthesizer, before the QL solve and the
// index-addressed CounterPlan replaced them: the tracked basis may move by
// rounding, but no decision and no kRefit estimate may.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/sharded_pipeline.hpp"
#include "dcsim/dynamics.hpp"
#include "dcsim/submission.hpp"
#include "tests/util/fleet_env.hpp"
#include "util/hash.hpp"

namespace flare::core {
namespace {

constexpr int kWindows = 48;
constexpr int kCheckpointEvery = 8;
constexpr double kWindowHours = 6.0;
constexpr std::size_t kRowsPerShapeWindow = 8;
constexpr std::uint64_t kStreamSeed = 0x60DE;

/// Rolling upgrade a third of the way in, flash crowds and anomaly episodes.
dcsim::WorkloadDynamics stream_dynamics() {
  dcsim::WorkloadDynamics d;
  d.seed = kStreamSeed;
  d.upgrade.enabled = true;
  d.upgrade.at_hours = kWindows / 3 * kWindowHours;
  d.upgrade.migrated_fraction = 0.5;
  d.upgrade.shift = 0.25;
  d.flash.enabled = true;
  d.flash.episodes_per_khour = 40.0;
  d.flash.duration_hours = 2.0;
  d.flash.arrival_multiplier = 4.0;
  d.anomaly.enabled = true;
  d.anomaly.episodes_per_khour = 30.0;
  d.anomaly.duration_hours = 4.0;
  d.anomaly.intensity = 1.0;
  d.anomaly.machine_fraction = 0.5;
  return d;
}

/// Window `index`: every shape's sub-fleet over the same absolute hours,
/// rows concatenated with dense ids.
dcsim::ScenarioSet make_window(const dcsim::FleetConfig& fleet, int index) {
  const dcsim::WorkloadDynamics dynamics = stream_dynamics();
  dcsim::ScenarioSet mixed;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    const dcsim::ShapePopulation& pop = fleet.shapes[s];
    dcsim::SubmissionConfig sub;
    sub.seed = kStreamSeed + s;
    sub.num_machines = pop.num_machines;
    const dcsim::ScenarioSet part = dcsim::generate_dynamics_batch(
        sub, pop.machine, dynamics.for_shape(pop.machine.name), index,
        kWindowHours, kRowsPerShapeWindow);
    for (dcsim::ColocationScenario row : part.scenarios) {
      row.id = mixed.scenarios.size();
      mixed.scenarios.push_back(std::move(row));
    }
  }
  mixed.machine_type = "mixed";
  return mixed;
}

/// Streams every window under `policy` and hashes what it decided.
std::uint64_t stream_hash(PcaUpdatePolicy policy) {
  ShardedConfig config;
  config.base = testing::shard_flare_config();
  config.base.drift_response.enabled = true;
  config.base.pca_update = policy;
  config.fleet = testing::three_shape_fleet();
  ShardedPipeline pipeline(config);
  pipeline.fit(testing::three_shape_population());

  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](const void* p, std::size_t n) {
    h = util::fnv1a(std::string_view(static_cast<const char*>(p), n), h);
  };
  const std::vector<Feature> features = standard_features();
  std::size_t ingests = 0;
  for (int w = 0; w < kWindows; ++w) {
    const FleetIngestReport report = pipeline.ingest(make_window(config.fleet, w));
    for (const std::optional<IngestReport>& shard : report.per_shape) {
      const unsigned char record[4] = {
          static_cast<unsigned char>(shard.has_value()),
          static_cast<unsigned char>(shard ? shard->action : DriftVerdict::kValid),
          static_cast<unsigned char>(shard && shard->pca_incremental_refit),
          static_cast<unsigned char>(shard && shard->pca_drift_escalated)};
      mix(record, sizeof(record));
      ingests += shard.has_value() ? 1 : 0;
    }
    if (policy != PcaUpdatePolicy::kRefit || (w + 1) % kCheckpointEvery != 0) {
      continue;
    }
    const Feature& feature =
        features[static_cast<std::size_t>(w / kCheckpointEvery) % features.size()];
    const ValidatedFleetEstimate estimate = pipeline.evaluate_with_validation(feature);
    mix(&estimate.estimate.impact_pct, sizeof(double));
    mix(&estimate.uncertainty_pp, sizeof(double));
  }
  EXPECT_GE(ingests, static_cast<std::size_t>(kWindows));
  return h;
}

TEST(IngestDecisionGolden, RefitPolicyDecisionsAndEstimatesAreUnchanged) {
  EXPECT_EQ(stream_hash(PcaUpdatePolicy::kRefit), 0x705cbe5713508b9eull);
}

TEST(IngestDecisionGolden, IncrementalPolicyDecisionsAreUnchanged) {
  EXPECT_EQ(stream_hash(PcaUpdatePolicy::kIncremental), 0x6817cf68de38696dull);
}

TEST(IngestDecisionGolden, AutoPolicyDecisionsAreUnchanged) {
  EXPECT_EQ(stream_hash(PcaUpdatePolicy::kAuto), 0xf60a7264c6200762ull);
}

}  // namespace
}  // namespace flare::core
