// Pooled-vs-sharded co-membership property (ctest label `shard`, §5.5):
//
// On a two-shape fleet, the sharded plane clusters each shape in its own
// whitened space, so two scenarios from different shapes can never share a
// behaviour group. A pooled pipeline (one PCA/K-means over the mixed rows)
// has no such guarantee — the partition it produces must still be broadly
// compatible with the sharded one on co-membership (both cluster the same
// underlying behaviours), but only the sharded partition is guaranteed to
// respect the shape boundary. The property pins both facts across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/sharded_pipeline.hpp"
#include "tests/util/comembership.hpp"
#include "tests/util/fleet_env.hpp"
#include "tests/util/property.hpp"

namespace flare::core {
namespace {

/// Global cluster labels for the merged (table-order) row sequence: shard
/// s's assignment shifted by the chosen_k of earlier shards, so labels are
/// comparable across the whole fleet without ever colliding between shards.
std::vector<std::size_t> sharded_labels(const ShardedPipeline& pipeline) {
  std::vector<std::size_t> labels;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const AnalysisResult& analysis = pipeline.shard(i).analysis();
    for (const std::size_t a : analysis.clustering.assignment) {
      labels.push_back(offset + a);
    }
    offset += analysis.chosen_k;
  }
  return labels;
}

TEST(ShardProperty, PooledVsShardedComembershipOnTwoShapeFleet) {
  FLARE_CHECK_PROPERTY(3, 0x5a4dULL, [](stats::Rng& rng, double scale) {
    // The population size cannot shrink below the metric-column count (PCA
    // needs full rank), so the shrink axis is the co-membership sample size.
    dcsim::SubmissionConfig submission = testing::fleet_submission_config();
    submission.seed = rng.next();
    const dcsim::FleetConfig fleet = testing::two_shape_fleet();
    const dcsim::FleetScenarioSet population =
        dcsim::generate_fleet_scenario_set(submission, fleet);

    ShardedConfig config;
    config.base = testing::shard_flare_config();
    config.fleet = fleet;
    ShardedPipeline sharded(config);
    sharded.fit(population);

    // The pooled baseline: one pipeline, every row forced into the default
    // shape's analysis space (profiled on the default machine — the larger
    // of the two shapes, so no mix exceeds capacity).
    const dcsim::ScenarioSet merged = population.merged();
    FlarePipeline pooled(testing::shard_flare_config());
    pooled.fit(merged);

    const std::vector<std::size_t> shard_labels = sharded_labels(sharded);
    const std::vector<std::size_t>& pooled_labels =
        pooled.analysis().clustering.assignment;
    ASSERT_EQ(shard_labels.size(), merged.size());
    ASSERT_EQ(pooled_labels.size(), merged.size());

    // 1. The sharded partition refines the shape partition: no cross-shape
    //    pair is ever co-member. Checked exhaustively over all cross pairs.
    const std::size_t boundary = population.per_shape[0].size();
    for (std::size_t i = 0; i < boundary; ++i) {
      for (std::size_t j = boundary; j < shard_labels.size(); ++j) {
        ASSERT_NE(shard_labels[i], shard_labels[j])
            << "rows " << i << " and " << j
            << " are from different shapes but share a sharded cluster";
      }
    }

    // 2. Pooled and sharded partitions agree on most sampled pairs: they
    //    cluster the same behaviours, just in different spaces. Two
    //    *independent* random partitions at these cluster counts already
    //    agree on ~0.8 of pairs (most pairs are non-co-member in both), so
    //    the floor below is well under the structural expectation but far
    //    above a degenerate all-one-cluster outcome (~0.2).
    const std::size_t pairs = std::max<std::size_t>(
        2000, static_cast<std::size_t>(200000 * scale));
    const double agreement = flare::testing::comembership_agreement(
        pooled_labels, shard_labels, pairs, rng.next());
    EXPECT_GE(agreement, 0.5);
    EXPECT_LE(agreement, 1.0);
  });
}

}  // namespace
}  // namespace flare::core
