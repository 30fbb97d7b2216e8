// Decision pin for the ingest path. A 48-window drifting stream over a
// three-shape fleet (tests/shard/drifting_stream.hpp) runs under each
// PcaUpdatePolicy; every shard's action and PCA-policy flags, and under
// kRefit the checkpoint estimates and bands, are hashed. The constant was
// captured with the cyclic-Jacobi tracked-basis fold and the name-keyed
// counter synthesizer, before the QL solve, the index-addressed CounterPlan
// and the lazy leading-k fold replaced them: the tracked basis may move by
// rounding, but no decision and no kRefit estimate may.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/sharded_pipeline.hpp"
#include "tests/shard/drifting_stream.hpp"
#include "tests/util/fleet_env.hpp"
#include "util/hash.hpp"

namespace flare::core {
namespace {

constexpr int kCheckpointEvery = 8;

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
  for (int w = 0; w < testing::kDriftingWindows; ++w) {
    const FleetIngestReport report = pipeline.ingest(testing::drifting_window(config.fleet, w));
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
  EXPECT_GE(ingests, static_cast<std::size_t>(testing::kDriftingWindows));
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
