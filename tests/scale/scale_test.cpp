// Million-scenario-regime acceptance (DESIGN.md §12, `ctest -L scale`):
//
//   - a 50 000-row population fits and analyses through the mmap-backed
//     ColumnStore without ever materialising the dense matrix;
//   - the coreset (minibatch) K-means path certifies co-membership ≥ 0.9
//     against the exact solver at the paper's population size (n = 895)
//     under the seeded property harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/out_of_core.hpp"
#include "metrics/column_store.hpp"
#include "ml/minibatch_kmeans.hpp"
#include "stats/rng.hpp"
#include "tests/util/comembership.hpp"
#include "tests/util/property.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

constexpr std::size_t kScaleRows = 50000;
constexpr std::size_t kScaleMetrics = 122;  // the paper's metric width
constexpr std::size_t kScaleBlobs = 18;     // latent rank = cluster count

metrics::MetricCatalog scale_catalog(std::size_t num_metrics) {
  std::vector<metrics::MetricInfo> infos;
  for (std::size_t i = 0; i < num_metrics; ++i) {
    metrics::MetricInfo m;
    m.index = i;
    m.name = (i % 2 == 0 ? "Machine.M" : "HP.M") + std::to_string(i);
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

// Streams a low-rank blob population into the store in small batches so
// building the fixture never holds more than one batch in RAM — the test's
// own footprint must not mask what the analysis allocates.
//
// Real datacenter metrics are heavily correlated, which is exactly why the
// paper's 122 metrics compress to ~18 PCs. The fixture reproduces that: each
// row draws an 18-dim latent (blob-shifted), every metric is a fixed mix of
// two latent coordinates plus small independent noise. PCA then needs ~rank
// components for the 95 % target, and no metric pair crosses the 0.98
// duplicate threshold (distinct mixing pairs cap |r| well below it).
void build_scale_store(const std::string& path,
                       const metrics::MetricCatalog& catalog, std::size_t rows,
                       std::size_t blobs, std::uint64_t seed) {
  metrics::create_column_store(path, catalog, /*block_rows=*/2048);
  stats::Rng rng(seed);
  const std::size_t batch_rows = 2048;
  std::vector<double> latent(blobs);
  for (std::size_t start = 0; start < rows; start += batch_rows) {
    const std::size_t count = std::min(batch_rows, rows - start);
    metrics::MetricDatabase batch(catalog);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row_index = start + i;
      const std::size_t blob = row_index % blobs;
      metrics::MetricRow row;
      row.scenario_id = row_index;
      row.scenario_key = "DC:" + std::to_string(row_index + 1);
      row.observation_weight = 1.0 + static_cast<double>(row_index % 5) * 0.5;
      for (std::size_t j = 0; j < blobs; ++j) {
        latent[j] = (j == blob ? 9.0 : 0.0) + rng.normal(0.0, 1.0);
      }
      row.values.resize(catalog.size());
      for (std::size_t c = 0; c < catalog.size(); ++c) {
        const double a = 1.0 + 0.05 * static_cast<double>(c % 7);
        const double b = 0.4 + 0.05 * static_cast<double>(c % 5);
        row.values[c] = a * latent[c % blobs] + b * latent[(c / 2) % blobs] +
                        rng.normal(0.0, 0.3);
      }
      batch.add_row(std::move(row));
    }
    metrics::append_column_store_rows(path, batch);
  }
}

AnalyzerConfig scale_config() {
  AnalyzerConfig config;
  config.fixed_clusters = kScaleBlobs;
  config.compute_quality_curve = false;
  config.kmeans_mode = KMeansMode::kAuto;  // n ≫ threshold → coreset path
  return config;
}

class ScaleTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(store_path_.c_str()); }
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string test_name_ =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string store_path_ =
      ::testing::TempDir() + "/flare_scale_store_" + test_name_ + ".fcs";
};

TEST_F(ScaleTest, FiftyThousandRowsAnalyseThroughMmap) {
  const metrics::MetricCatalog catalog = scale_catalog(kScaleMetrics);
  build_scale_store(store_path_, catalog, kScaleRows, kScaleBlobs, /*seed=*/21);

  metrics::ColumnStoreOptions store_options;
  store_options.sequential_drop = true;  // stream-friendly: drop behind reads
  const metrics::ColumnStore store(store_path_, catalog, store_options);
  ASSERT_TRUE(store.mapped());
  ASSERT_EQ(store.num_rows(), kScaleRows);

  util::ThreadPool pool(4);
  OutOfCoreOptions options;
  options.memory_budget_bytes = 64u << 20;
  OutOfCoreTelemetry telemetry;
  const AnalysisResult result = analyze_out_of_core(store, scale_config(),
                                                    options, &pool, &telemetry);

  EXPECT_EQ(result.cluster_space.rows(), kScaleRows);
  EXPECT_EQ(result.chosen_k, kScaleBlobs);
  EXPECT_EQ(result.representatives.size(), kScaleBlobs);
  double weight_sum = 0.0;
  for (const double w : result.cluster_weights) weight_sum += w;
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);

  // The whole point: the working set stays a small fraction of the dense
  // matrix the in-RAM path would allocate.
  EXPECT_EQ(telemetry.passes, 2u);
  EXPECT_EQ(telemetry.dense_bytes, kScaleRows * kScaleMetrics * sizeof(double));
  EXPECT_LE(telemetry.resident_bytes, telemetry.dense_bytes / 4);

  // The partition tracks the generating blobs: ≥ 90 % pair-level agreement
  // with ground truth (the coreset solve may split/merge a boundary pair,
  // which costs a little agreement but not correctness of the sweep).
  std::vector<std::size_t> truth(kScaleRows);
  for (std::size_t i = 0; i < kScaleRows; ++i) truth[i] = i % kScaleBlobs;
  EXPECT_GE(
      testing::comembership_agreement(result.clustering.assignment, truth),
      0.9);
}

// Paper-scale co-membership certification: at n = 895 (the population of the
// source cluster dataset) the coreset solve + refinement must agree with the
// exact solver on ≥ 90 % of sampled pairs, across independently seeded
// populations.
TEST(ScalePropertyTest, MinibatchMatchesExactCoMembership) {
  FLARE_CHECK_PROPERTY(8, 0x5CA1E5EEDull, [](stats::Rng& rng, double scale) {
    const std::size_t n =
        std::max<std::size_t>(64, static_cast<std::size_t>(895 * scale));
    const std::size_t dims = 18;
    const std::size_t k = 6;
    linalg::Matrix data(n, dims);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t blob = i % k;
      for (std::size_t d = 0; d < dims; ++d) {
        const double center = (d % k == blob) ? 8.0 : 0.0;
        data(i, d) = center + rng.normal(0.0, 1.0);
      }
    }

    ml::KMeansParams kmeans_params;
    kmeans_params.k = k;
    const ml::KMeansResult exact = ml::kmeans(data, kmeans_params);

    ml::MiniBatchKMeansParams mb;
    mb.kmeans = kmeans_params;
    mb.coreset.size = 256;
    mb.coreset.seed = rng.uniform_int(1, 1u << 30);
    const ml::KMeansResult fast = ml::minibatch_kmeans(data, mb);

    const double agreement =
        testing::comembership_agreement(exact.assignment, fast.assignment);
    EXPECT_GE(agreement, 0.9)
        << "coreset partition diverged from exact at n = " << n;
  });
}

}  // namespace
}  // namespace flare::core
