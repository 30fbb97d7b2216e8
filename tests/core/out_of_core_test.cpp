#include "core/out_of_core.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "metrics/column_store.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

// 10 metrics: col 0 constant, col 9 an exact affine duplicate of col 1, the
// rest independent blob coordinates — so refinement has real work to do.
metrics::MetricCatalog test_catalog() {
  std::vector<metrics::MetricInfo> infos;
  for (const char* name :
       {"Machine.Const", "Machine.A", "Machine.B", "Machine.C", "HP.A", "HP.B",
        "HP.C", "HP.D", "HP.E", "Machine.DupOfA"}) {
    metrics::MetricInfo m;
    m.index = infos.size();
    m.name = name;
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

metrics::MetricDatabase make_population(const metrics::MetricCatalog& catalog,
                                        std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  metrics::MetricDatabase db(catalog);
  const std::size_t blobs = 4;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = i % blobs;
    metrics::MetricRow row;
    row.scenario_id = i;
    row.scenario_key = "DC:" + std::to_string(i + 1);
    row.observation_weight = 1.0 + static_cast<double>(i % 3);
    row.values.resize(catalog.size());
    row.values[0] = 7.5;  // constant column
    for (std::size_t c = 1; c < 9; ++c) {
      const double center = ((c - 1) % blobs == blob) ? 10.0 : 0.0;
      row.values[c] = center + rng.normal(0.0, 1.0);
    }
    row.values[9] = 2.0 * row.values[1] + 5.0;  // |r| = 1 with column 1
    db.add_row(std::move(row));
  }
  return db;
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = make_population(catalog_, 400, /*seed=*/3);
    metrics::create_column_store(path_, catalog_, /*block_rows=*/64);
    metrics::append_column_store_rows(path_, db_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  AnalyzerConfig small_config() const {
    AnalyzerConfig config;
    config.fixed_clusters = 4;
    config.compute_quality_curve = false;
    return config;
  }

  metrics::MetricCatalog catalog_ = test_catalog();
  metrics::MetricDatabase db_{catalog_};
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string path_ =
      ::testing::TempDir() + "/flare_ooc_store_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".fcs";
};

TEST_F(OutOfCoreTest, MatchesInRamAnalysisDecisions) {
  const AnalyzerConfig config = small_config();
  const metrics::ColumnStore store(path_, catalog_);
  OutOfCoreTelemetry telemetry;
  const AnalysisResult ooc =
      analyze_out_of_core(store, config, {}, nullptr, &telemetry);
  const AnalysisResult ram = Analyzer(config).analyze(db_);

  // Refinement decisions are bit-identical (the min/max and correlation
  // rules are order-independent, so streaming cannot change them).
  EXPECT_EQ(ooc.constant_columns, ram.constant_columns);
  EXPECT_EQ(ooc.kept_columns, ram.kept_columns);
  ASSERT_EQ(ooc.refinement.drops.size(), ram.refinement.drops.size());
  for (std::size_t i = 0; i < ram.refinement.drops.size(); ++i) {
    EXPECT_EQ(ooc.refinement.drops[i].dropped_column,
              ram.refinement.drops[i].dropped_column);
    EXPECT_EQ(ooc.refinement.drops[i].kept_column,
              ram.refinement.drops[i].kept_column);
  }

  // PCA agrees on the variance-target cut; clustering agrees on the
  // partition (well-separated blobs → rounding cannot flip memberships).
  EXPECT_EQ(ooc.num_components, ram.num_components);
  EXPECT_EQ(ooc.chosen_k, ram.chosen_k);
  EXPECT_EQ(ooc.representatives, ram.representatives);
  ASSERT_EQ(ooc.cluster_weights.size(), ram.cluster_weights.size());
  for (std::size_t c = 0; c < ram.cluster_weights.size(); ++c) {
    EXPECT_NEAR(ooc.cluster_weights[c], ram.cluster_weights[c], 1e-12);
  }

  EXPECT_EQ(telemetry.passes, 2u);
  EXPECT_EQ(telemetry.blocks_streamed, 2u * store.num_blocks());
  EXPECT_LT(telemetry.resident_bytes, telemetry.dense_bytes);
  EXPECT_EQ(ooc.stage_counters.total(), 6u);
  EXPECT_EQ(ram.stage_counters, ooc.stage_counters);  // each stage ran once
}

TEST_F(OutOfCoreTest, AppendInvalidatesTheMomentKey) {
  const AnalyzerConfig config = small_config();
  {
    const metrics::ColumnStore store(path_, catalog_);
    (void)analyze_out_of_core(store, config);
  }
  metrics::append_column_store_rows(
      path_, make_population(catalog_, 40, /*seed=*/99));
  const metrics::ColumnStore grown(path_, catalog_);
  OutOfCoreTelemetry telemetry;
  const AnalysisResult result =
      analyze_out_of_core(grown, config, {}, nullptr, &telemetry);
  // The re-analysis streams both passes over the grown store.
  EXPECT_EQ(telemetry.passes, 2u);
  EXPECT_EQ(result.cluster_space.rows(), 440u);
}

TEST_F(OutOfCoreTest, ThrowsWhenScoresCannotFitTheBudget) {
  AnalyzerConfig config = small_config();
  const metrics::ColumnStore store(path_, catalog_);
  OutOfCoreOptions options;
  options.memory_budget_bytes = 128;  // n·ncomp doubles can never fit
  EXPECT_THROW(analyze_out_of_core(store, config, options), NumericalError);
}

TEST_F(OutOfCoreTest, ParallelMomentsAreBitIdentical) {
  const AnalyzerConfig config = small_config();
  const metrics::ColumnStore store(path_, catalog_);
  const AnalysisResult serial = analyze_out_of_core(store, config);
  util::ThreadPool pool(4);
  const AnalysisResult parallel =
      analyze_out_of_core(store, config, {}, &pool);
  EXPECT_EQ(parallel.cluster_space.data(), serial.cluster_space.data());
  EXPECT_EQ(parallel.representatives, serial.representatives);
}

}  // namespace
}  // namespace flare::core
