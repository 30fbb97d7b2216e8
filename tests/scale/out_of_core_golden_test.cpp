// Bit-identity pin for the streamed analysis (DESIGN.md §12), the
// out-of-core twin of AnalyzerGolden. The constant was captured by hashing
// analyze_out_of_core's output for this store before the shared dense
// kernels (DESIGN.md §7) replaced the pass-1 comoment loop and the pass-2
// projection loop. Any change to those kernels that moves a single bit of
// the moments, the PCA, the cluster space, the assignment, the
// representatives or the weights fails here.
//
// The store has 12 621 rows (above the 8192-row minibatch threshold, so
// kAuto takes the coreset path) and 61 metrics (not a multiple of the
// 4-wide kernel tile), streamed in 1024-row blocks plus a short tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.hpp"
#include "core/out_of_core.hpp"
#include "metrics/column_store.hpp"
#include "stats/rng.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

constexpr std::size_t kRows = 12288 + 333;
constexpr std::size_t kMetrics = 61;
constexpr std::size_t kLatent = 9;

metrics::MetricCatalog golden_catalog() {
  std::vector<metrics::MetricInfo> infos;
  for (std::size_t i = 0; i < kMetrics; ++i) {
    metrics::MetricInfo m;
    m.index = i;
    m.name = (i % 3 == 0 ? "Machine.G" : "HP.G") + std::to_string(i);
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

// Low-rank blob population with one constant column (0) and one exact
// affine duplicate (60 of 1), so refinement drops columns and the kept set
// is not a prefix of the store's columns.
void build_golden_store(const std::string& path,
                        const metrics::MetricCatalog& catalog) {
  metrics::create_column_store(path, catalog, /*block_rows=*/1024);
  stats::Rng rng(0x600DF00Dull);
  std::vector<double> latent(kLatent);
  const std::size_t batch_rows = 2000;
  for (std::size_t start = 0; start < kRows; start += batch_rows) {
    const std::size_t count = std::min(batch_rows, kRows - start);
    metrics::MetricDatabase batch(catalog);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row_index = start + i;
      const std::size_t blob = row_index % kLatent;
      metrics::MetricRow row;
      row.scenario_id = row_index;
      row.scenario_key = "DC:" + std::to_string(row_index + 1);
      row.observation_weight = 1.0 + static_cast<double>(row_index % 4) * 0.25;
      for (std::size_t j = 0; j < kLatent; ++j) {
        latent[j] = (j == blob ? 7.0 : 0.0) + rng.normal(0.0, 1.0);
      }
      row.values.resize(kMetrics);
      row.values[0] = 3.25;
      for (std::size_t c = 1; c + 1 < kMetrics; ++c) {
        const double a = 0.8 + 0.1 * static_cast<double>(c % 6);
        const double b = -0.5 + 0.2 * static_cast<double>(c % 4);
        row.values[c] = a * latent[c % kLatent] +
                        b * latent[(c / 3) % kLatent] + 1e3 * (c % 2) +
                        rng.normal(0.0, 0.4);
      }
      row.values[kMetrics - 1] = -4.0 * row.values[1] + 11.0;
      batch.add_row(std::move(row));
    }
    metrics::append_column_store_rows(path, batch);
  }
}

std::uint64_t hash_result(const AnalysisResult& a) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&](const void* p, std::size_t n) {
    h = util::fnv1a(std::string_view(static_cast<const char*>(p), n), h);
  };
  const auto mix_doubles = [&](const std::vector<double>& v) {
    mix(v.data(), v.size() * sizeof(double));
  };
  mix(a.kept_columns.data(), a.kept_columns.size() * sizeof(std::size_t));
  mix_doubles(a.standardizer.means());
  mix_doubles(a.standardizer.scales());
  mix_doubles(a.pca.eigenvalues());
  mix_doubles(a.pca.components().data());
  mix(&a.num_components, sizeof(a.num_components));
  mix_doubles(a.cluster_space.data());
  mix(&a.chosen_k, sizeof(a.chosen_k));
  mix(a.clustering.assignment.data(),
      a.clustering.assignment.size() * sizeof(std::size_t));
  mix(a.representatives.data(), a.representatives.size() * sizeof(std::size_t));
  mix_doubles(a.cluster_weights);
  return h;
}

TEST(OutOfCoreGolden, StreamedAnalysisIsBitIdenticalToPreKernelCapture) {
  const std::string path =
      ::testing::TempDir() + "/flare_ooc_golden_store.fcs";
  const metrics::MetricCatalog catalog = golden_catalog();
  build_golden_store(path, catalog);
  const metrics::ColumnStore store(path, catalog);
  ASSERT_EQ(store.num_rows(), kRows);

  AnalyzerConfig config;
  config.fixed_clusters = kLatent;
  config.compute_quality_curve = false;
  config.kmeans_mode = KMeansMode::kAuto;

  const AnalysisResult serial = analyze_out_of_core(store, config);
  util::ThreadPool pool(4);
  const AnalysisResult parallel = analyze_out_of_core(store, config, {}, &pool);
  std::remove(path.c_str());

  ASSERT_EQ(serial.constant_columns, std::vector<std::size_t>{0});
  EXPECT_EQ(hash_result(serial), 0x0c988a8c10e2467cull);
  EXPECT_EQ(hash_result(parallel), hash_result(serial));
}

}  // namespace
}  // namespace flare::core
