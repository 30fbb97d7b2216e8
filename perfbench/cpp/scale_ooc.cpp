// scale_ooc — analyze_out_of_core over a synthetic 100 000 × 122 ColumnStore
// built in set-up, with kmeans_mode = kAuto. Only above the 4096/8192-row
// thresholds do the mmap store, the two-pass moments, the coreset K-means
// and the sampled silhouette switch on; this workload is where they run.
//
//   write = one fresh 2048-row block placed into the out-of-core fit
//           (stages::project_rows + assign_to_nearest, the drift monitor's
//           first step)
//   read  = one analyze_out_of_core over the whole store
//
// The set-up appends the store block by block; those appends are reported
// per layer (ooc.append_ms_p50) — they are page-cache bound and too noisy on
// a shared host to gate on. The set-up is timed twice before the first
// analysis and then once more, into a second file, after every other
// analysis, so its samples spread over the whole run.
//
// The population is low-rank (metrics mix an 18-dimensional latent), the
// way the paper's 122 correlated metrics compress to ~18 PCs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/out_of_core.hpp"
#include "metrics/column_store.hpp"
#include "ml/cluster_quality.hpp"
#include "ml/minibatch_kmeans.hpp"
#include "stats/rng.hpp"
#include "sysinfo.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace flarebench {
namespace {

using namespace flare;

constexpr std::size_t kRows = 100000;
constexpr std::size_t kMetrics = 122;
constexpr std::size_t kLatent = 18;
constexpr std::size_t kBlockRows = 2048;
/// Set-ups timed before the first analysis (after one untimed warm-up).
constexpr int kSetupRepeats = 2;
/// One more timed set-up after every this many analyses.
constexpr int kSetupEvery = 2;
/// Fresh blocks placed after each analysis, so the placements spread over
/// the whole run.
constexpr std::size_t kFreshBlocksPerAnalysis = 8;
/// Nominal seconds per analysis: the run does seconds / this analyses.
constexpr double kNominalAnalysisS = 1.5;

metrics::MetricCatalog scale_catalog() {
  std::vector<metrics::MetricInfo> infos;
  for (std::size_t i = 0; i < kMetrics; ++i) {
    metrics::MetricInfo m;
    m.index = i;
    m.name = (i % 2 == 0 ? "Machine.M" : "HP.M") + std::to_string(i);
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

/// Rows [start, start + count) of the synthetic population.
metrics::MetricDatabase make_block(const metrics::MetricCatalog& catalog,
                                   stats::Rng& rng, std::size_t start,
                                   std::size_t count) {
  metrics::MetricDatabase batch(catalog);
  batch.reserve(count);
  std::vector<double> latent(kLatent);
  for (std::size_t i = 0; i < count; ++i) {
    metrics::MetricRow row;
    row.scenario_id = start + i;
    row.scenario_key = "DC:" + std::to_string(start + i + 1);
    row.observation_weight = 1.0;
    const std::size_t blob = (start + i) % kLatent;
    for (std::size_t j = 0; j < kLatent; ++j) {
      latent[j] = (j == blob ? 9.0 : 0.0) + rng.normal(0.0, 1.0);
    }
    row.values.resize(kMetrics);
    for (std::size_t c = 0; c < kMetrics; ++c) {
      const double a = 1.0 + 0.05 * static_cast<double>(c % 7);
      const double b = 0.4 + 0.05 * static_cast<double>(c % 5);
      row.values[c] = a * latent[c % kLatent] + b * latent[(c / 2) % kLatent] +
                      rng.normal(0.0, 0.3);
    }
    batch.add_row(std::move(row));
  }
  return batch;
}

/// Builds the store block by block; returns each append's time in ms.
std::vector<double> build_store(const std::string& path,
                                const metrics::MetricCatalog& catalog,
                                std::uint64_t seed) {
  metrics::create_column_store(path, catalog, kBlockRows);
  stats::Rng rng(seed);
  std::vector<double> append_ms;
  for (std::size_t start = 0; start < kRows; start += kBlockRows) {
    const metrics::MetricDatabase batch =
        make_block(catalog, rng, start, std::min(kBlockRows, kRows - start));
    append_ms.push_back(timed_span("ooc", "append_column_store_rows", [&] {
      metrics::append_column_store_rows(path, batch);
    }));
  }
  return append_ms;
}

core::AnalyzerConfig scale_config() {
  core::AnalyzerConfig config;  // fixed k = 18, one thread
  config.compute_quality_curve = false;
  config.kmeans_mode = core::KMeansMode::kAuto;
  return config;
}

}  // namespace

void run_scale_ooc(const Options& options, RunResult& result) {
  const metrics::MetricCatalog catalog = scale_catalog();
  const std::string path = options.run_dir + "/scale.fcs";
  std::filesystem::create_directories(options.run_dir);

  // ---- Set-up: build the store (timed; repeated during the run). ----
  std::vector<double> setup_s, append_ms;
  const auto set_up = [&](const std::string& store_path, bool timed) {
    const long long t0 = now_ns();
    const std::vector<double> appends =
        build_store(store_path, catalog, derive_seed(options.seed, 0x5CA1E));
    if (!timed) return;
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    append_ms.insert(append_ms.end(), appends.begin(), appends.end());
  };
  set_up(path, false);  // lets the page cache settle
  for (int i = 0; i < kSetupRepeats; ++i) set_up(path, true);
  const std::string rebuild_path = options.run_dir + "/rebuild.fcs";

  metrics::ColumnStoreOptions store_options;
  store_options.sequential_drop = true;  // as --memory-budget sets it
  const metrics::ColumnStore store(path, catalog, store_options);
  const core::AnalyzerConfig config = scale_config();
  core::OutOfCoreOptions ooc;
  ooc.memory_budget_bytes = std::size_t{256} << 20;

  // ---- Measurement. ----
  const int analyses =
      std::max(3, static_cast<int>(std::lround(options.seconds / kNominalAnalysisS)));
  reset_peak_rss();
  std::vector<double> analyze_ms;
  std::vector<double> place_ms;
  core::AnalysisResult first;
  core::OutOfCoreTelemetry telemetry;
  // Fresh rows (a population the store has not seen) placed into the fit.
  stats::Rng fresh_rng(derive_seed(options.seed, 0xF4E54));
  std::size_t fresh_row = kRows;
  for (int i = 0; i < analyses; ++i) {
    core::AnalysisResult a;
    core::OutOfCoreTelemetry t;
    analyze_ms.push_back(timed_span("ooc", "analyze_out_of_core", [&] {
      a = core::analyze_out_of_core(store, config, ooc, nullptr, &t);
    }));
    if (i % kSetupEvery == kSetupEvery - 1) set_up(rebuild_path, true);
    if (i == 0) {
      first = std::move(a);
      telemetry = t;
    } else {
      result.check(a.num_components == first.num_components &&
                       a.representatives == first.representatives,
                   "scale_ooc: analysis differs between repeats");
    }
    for (std::size_t b = 0; b < kFreshBlocksPerAnalysis; ++b, fresh_row += kBlockRows) {
      const linalg::Matrix raw =
          make_block(catalog, fresh_rng, fresh_row, kBlockRows).to_matrix();
      core::stages::NearestAssignment placed;
      place_ms.push_back(
          timed_span("analyzer", "stages::project_rows+assign_to_nearest", [&] {
            placed = core::stages::assign_to_nearest(
                first.clustering, core::stages::project_rows(first, raw));
          }));
      result.check(placed.cluster.size() == kBlockRows,
                   "scale_ooc: a fresh row was not placed");
    }
  }
  const double rss = peak_rss_mib();
  result.count_ops(analyze_ms.size() + place_ms.size(), 0);

  const double resident_fraction = static_cast<double>(telemetry.resident_bytes) /
                                   static_cast<double>(telemetry.dense_bytes);
  result.check(resident_fraction <= 0.25, "scale_ooc: resident fraction > 0.25");
  result.check(first.num_components > 0 && first.representatives.size() == first.chosen_k,
               "scale_ooc: empty analysis");

  result.set("setup_s", median(setup_s), "s");
  result.set_summary("write_ms", summarize(place_ms), "ms");
  result.set("ooc.append_ms_p50", median(append_ms), "ms");
  result.set("analyzer.project_ms", median(place_ms), "ms");
  result.set_summary("read_ms", summarize(analyze_ms), "ms");
  result.set("rows_per_s", static_cast<double>(kRows) / (median(analyze_ms) / 1e3),
             "rows/s");
  result.set("peak_rss_mb", rss, "MiB");
  result.set("ooc.store_build_ms", 1e3 * median(setup_s), "ms");
  result.set("ooc.passes", static_cast<double>(telemetry.passes), "count");
  result.set("ooc.blocks_streamed", static_cast<double>(telemetry.blocks_streamed), "count");
  result.set("ooc.resident_fraction", resident_fraction, "ratio");
  result.set("analyzer.components", static_cast<double>(first.num_components), "count");
  result.set("analyzer.chosen_k", static_cast<double>(first.chosen_k), "count");

  std::printf("scale_ooc: %zu x %zu store, %zu components, %d analyses\n", kRows, kMetrics,
              first.num_components, analyses);
  print_line("analyze_s", median(analyze_ms) / 1e3, "s");
  print_line("resident_fraction", resident_fraction, "ratio");

  std::filesystem::remove(rebuild_path);
  if (!options.trace) {
    std::filesystem::remove(path);
    return;
  }
  // Kernels of the cluster stage on the analysis' own cluster space.
  ml::MiniBatchKMeansParams mb;
  mb.kmeans = config.kmeans;
  mb.kmeans.k = first.chosen_k;
  mb.coreset = config.coreset;
  mb.refine_iterations = config.minibatch_refine_iterations;
  ml::KMeansResult clustering;
  const double kmeans_ms = timed_span("ml", "ml::minibatch_kmeans", [&] {
    clustering = ml::minibatch_kmeans(first.cluster_space, mb);
  });
  double silhouette = 0.0;
  const double silhouette_ms = timed_span("ml", "ml::silhouette_score_sampled", [&] {
    silhouette = ml::silhouette_score_sampled(first.cluster_space, clustering.assignment,
                                              first.chosen_k, config.silhouette_sample,
                                              derive_seed(options.seed, 0x5111));
  });
  result.check(std::isfinite(silhouette), "scale_ooc: sampled silhouette not finite");
  result.set("ml.minibatch_kmeans_ms", kmeans_ms, "ms");
  result.set("ml.sampled_silhouette_ms", silhouette_ms, "ms");
  result.set("analyzer.kmeans_iterations", static_cast<double>(first.clustering.iterations),
             "count");
  std::filesystem::remove(path);
}

}  // namespace flarebench
