// The tracked-basis fold against its full-QL oracle
// (tests/util/tracked_pca_oracle.hpp) on the drifting three-shape stream
// (tests/shard/drifting_stream.hpp), under every PcaUpdatePolicy. After each
// shard ingest the oracle folds the same healthy, standardised rows the
// shard folded, and restarts from the shard's analysis basis wherever the
// shard did (after every refit). Every reported pca_drift must stay within
// 1e-9 of the oracle's; every spliced basis — ml::TrackedPca::materialize —
// must match the oracle's kept subspace within 1e-9 and its ratios within
// 1e-12.
#include <gtest/gtest.h>

#include <vector>

#include "core/sharded_pipeline.hpp"
#include "tests/shard/drifting_stream.hpp"
#include "tests/util/fleet_env.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/tracked_pca_oracle.hpp"

namespace flare::core {
namespace {

using flare::testing::FullQlTrackedBasis;

struct OracleTally {
  std::size_t folds = 0;
  std::size_t splices = 0;
};

/// The rows shard `shard` folded for `report`: its healthy new rows, in
/// the kept columns, standardised in the frame the shard folded them in.
linalg::Matrix folded_rows(const FlarePipeline& shard, const IngestReport& report,
                           const ml::Standardizer& frame,
                           const std::vector<std::size_t>& kept) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = report.first_new_row;
       i < report.first_new_row + report.appended; ++i) {
    if (shard.quarantined()[i]) continue;
    std::vector<double> row;
    for (const std::size_t c : kept) row.push_back(shard.database().row(i).values[c]);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return linalg::Matrix();
  return frame.transform(flare::testing::from_rows(rows));
}

OracleTally stream_against_oracle(PcaUpdatePolicy policy) {
  ShardedConfig config;
  config.base = testing::shard_flare_config();
  config.base.drift_response.enabled = true;
  config.base.pca_update = policy;
  config.fleet = testing::three_shape_fleet();
  ShardedPipeline pipeline(config);
  pipeline.fit(testing::three_shape_population());

  std::vector<FullQlTrackedBasis> oracles;
  for (std::size_t s = 0; s < pipeline.num_shards(); ++s) {
    const AnalysisResult& analysis = pipeline.shard(s).analysis();
    oracles.emplace_back(analysis.pca, analysis.num_components);
  }
  OracleTally tally;
  for (int w = 0; w < testing::kDriftingWindows; ++w) {
    // The frame each shard folds this window in: its analysis before ingest.
    std::vector<ml::Standardizer> frames;
    std::vector<std::vector<std::size_t>> kept;
    for (std::size_t s = 0; s < pipeline.num_shards(); ++s) {
      frames.push_back(pipeline.shard(s).analysis().standardizer);
      kept.push_back(pipeline.shard(s).analysis().kept_columns);
    }
    const FleetIngestReport report =
        pipeline.ingest(testing::drifting_window(config.fleet, w));
    for (std::size_t s = 0; s < report.per_shape.size(); ++s) {
      if (!report.per_shape[s]) continue;
      SCOPED_TRACE("window " + std::to_string(w) + ", shard " + std::to_string(s));
      const IngestReport& shard_report = *report.per_shape[s];
      const FlarePipeline& shard = pipeline.shard(s);
      const linalg::Matrix batch = folded_rows(shard, shard_report, frames[s], kept[s]);
      if (batch.rows() > 0) {
        oracles[s].fold(batch);
        EXPECT_NEAR(shard_report.pca_drift, oracles[s].drift(), 1e-9);
        ++tally.folds;
      }
      if (shard_report.pca_incremental_refit) {
        const ml::Pca& spliced = shard.analysis().pca;
        const std::vector<double> ratios = oracles[s].explained_variance_ratio();
        for (std::size_t i = 0; i < ratios.size(); ++i) {
          EXPECT_NEAR(spliced.explained_variance_ratio()[i], ratios[i], 1e-12) << i;
        }
        EXPECT_LE(flare::testing::subspace_sin_bound(oracles[s].components(),
                                                     spliced.components(),
                                                     shard.analysis().num_components),
                  1e-9);
        ++tally.splices;
      }
      if (shard_report.action == DriftVerdict::kRefit) {
        oracles[s] = FullQlTrackedBasis(shard.analysis().pca,
                                        shard.analysis().num_components);
      }
    }
  }
  EXPECT_GE(tally.folds, static_cast<std::size_t>(testing::kDriftingWindows));
  return tally;
}

TEST(TrackedBasisOracle, RefitPolicyDriftMatchesTheFullQlChain) {
  EXPECT_EQ(stream_against_oracle(PcaUpdatePolicy::kRefit).splices, 0u);
}

TEST(TrackedBasisOracle, IncrementalPolicyDriftAndSplicesMatchTheFullQlChain) {
  EXPECT_GT(stream_against_oracle(PcaUpdatePolicy::kIncremental).splices, 0u);
}

TEST(TrackedBasisOracle, AutoPolicyDriftMatchesTheFullQlChain) {
  // On this stream every kAuto refit finds the drift past its limit and goes
  // cold, so the splice checks run under kIncremental; this one pins the
  // drift that choice reads.
  stream_against_oracle(PcaUpdatePolicy::kAuto);
}

}  // namespace
}  // namespace flare::core
