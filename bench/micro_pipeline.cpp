// google-benchmark microbenchmarks of the pipeline's computational kernels:
// scenario evaluation, counter synthesis, PCA, K-means, silhouette, and the
// end-to-end fit. These quantify why FLARE's analysis is "light-weight".
#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "ml/cluster_quality.hpp"
#include "ml/kmeans.hpp"
#include "ml/pca.hpp"
#include "ml/tracked_pca.hpp"
#include "stats/rng.hpp"

namespace {

using namespace flare;

const bench::Environment& env() {
  static const bench::Environment kEnv = bench::make_environment();
  return kEnv;
}

// --- Analyzer-kernel fixtures (paper scale n=895 and a 10× stress size) ---

constexpr std::size_t kBlobDims = 18;   // whitened cluster-space width
constexpr std::size_t kBlobCenters = 18;

/// Synthetic Gaussian blobs shaped like the whitened cluster space.
linalg::Matrix make_blobs(std::size_t n) {
  const stats::Rng rng(0xB10B5);
  stats::Rng centers_rng = rng.fork(0);
  linalg::Matrix centers(kBlobCenters, kBlobDims);
  for (std::size_t c = 0; c < kBlobCenters; ++c) {
    for (std::size_t d = 0; d < kBlobDims; ++d) {
      centers(c, d) = centers_rng.normal(0.0, 4.0);
    }
  }
  stats::Rng points_rng = rng.fork(1);
  linalg::Matrix data(n, kBlobDims);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % kBlobCenters;
    for (std::size_t d = 0; d < kBlobDims; ++d) {
      data(i, d) = centers(c, d) + points_rng.normal();
    }
  }
  return data;
}

const linalg::Matrix& blob_data(std::size_t n) {
  static const linalg::Matrix kSmall = make_blobs(895);
  static const linalg::Matrix kLarge = make_blobs(8950);
  return n == 895 ? kSmall : kLarge;
}

const std::vector<std::size_t>& blob_assignment(std::size_t n) {
  static const auto assign = [](std::size_t rows) {
    ml::KMeansParams params;
    params.k = kBlobCenters;
    params.restarts = 1;
    return ml::kmeans(blob_data(rows), params).assignment;
  };
  static const std::vector<std::size_t> kSmall = assign(895);
  static const std::vector<std::size_t> kLarge = assign(8950);
  return n == 895 ? kSmall : kLarge;
}

void BM_ScenarioEvaluation(benchmark::State& state) {
  const dcsim::InterferenceModel model;
  const auto& scenario = env().set.scenarios[42];
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate(dcsim::default_machine(), scenario.mix, ++stream));
  }
}
BENCHMARK(BM_ScenarioEvaluation);

void BM_CounterSynthesis(benchmark::State& state) {
  const dcsim::InterferenceModel model;
  const auto perf =
      model.evaluate(dcsim::default_machine(), env().set.scenarios[42].mix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcsim::synthesize_counters(
        perf, dcsim::default_job_catalog(), metrics::MetricCatalog::standard()));
  }
}
BENCHMARK(BM_CounterSynthesis);

void BM_ProfileWholeDatacenter(benchmark::State& state) {
  const dcsim::InterferenceModel model;
  const core::Profiler profiler(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(env().set, dcsim::default_machine()));
  }
}
BENCHMARK(BM_ProfileWholeDatacenter);

void BM_PcaFit(benchmark::State& state) {
  const linalg::Matrix data = env().pipeline->database().to_matrix();
  ml::Standardizer standardizer;
  const linalg::Matrix z = standardizer.fit_transform(data);
  for (auto _ : state) {
    ml::Pca pca;
    pca.fit(z);
    benchmark::DoNotOptimize(pca);
  }
}
BENCHMARK(BM_PcaFit);

void BM_KMeans18(benchmark::State& state) {
  const linalg::Matrix& space = env().pipeline->analysis().cluster_space;
  for (auto _ : state) {
    ml::KMeansParams params;
    params.k = 18;
    benchmark::DoNotOptimize(ml::kmeans(space, params));
  }
}
BENCHMARK(BM_KMeans18);

void BM_Silhouette18(benchmark::State& state) {
  const auto& analysis = env().pipeline->analysis();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::silhouette_score(
        analysis.cluster_space, analysis.clustering.assignment, 18));
  }
}
BENCHMARK(BM_Silhouette18);

// --- Analyzer perf kernels: the Fig. 9 k-sweep and its two ingredients ---

/// The pre-optimisation sweep: per-k naive Lloyd + uncached O(n²·dim)
/// silhouette recomputed from raw data for every candidate k.
void BM_KSweepSerialNaive(benchmark::State& state) {
  const linalg::Matrix& space = blob_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double checksum = 0.0;
    for (std::size_t k = 2; k <= 24; ++k) {
      ml::KMeansParams params;
      params.k = k;
      params.prune = false;
      const ml::KMeansResult kr = ml::kmeans(space, params);
      checksum += kr.sse + ml::silhouette_score(space, kr.assignment, k);
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_KSweepSerialNaive)->Arg(895)->Unit(benchmark::kMillisecond);

/// The optimised sweep: one shared pairwise-distance matrix + pruned Lloyd.
/// Produces bit-identical SSE/silhouette values to BM_KSweepSerialNaive.
void BM_KSweepPrunedCached(benchmark::State& state) {
  const linalg::Matrix& space = blob_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double checksum = 0.0;
    const ml::PairwiseDistances distances = ml::pairwise_distances(space);
    for (std::size_t k = 2; k <= 24; ++k) {
      ml::KMeansParams params;
      params.k = k;
      const ml::KMeansResult kr = ml::kmeans(space, params);
      checksum += kr.sse + ml::silhouette_score(distances, kr.assignment, k);
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_KSweepPrunedCached)->Arg(895)->Unit(benchmark::kMillisecond);

void BM_LloydNaive(benchmark::State& state) {
  const linalg::Matrix& space = blob_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ml::KMeansParams params;
    params.k = 18;
    params.restarts = 1;
    params.max_iterations = 20;
    params.prune = false;
    benchmark::DoNotOptimize(ml::kmeans(space, params));
  }
}
BENCHMARK(BM_LloydNaive)->Arg(895)->Arg(8950)->Unit(benchmark::kMillisecond);

void BM_LloydPruned(benchmark::State& state) {
  const linalg::Matrix& space = blob_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ml::KMeansParams params;
    params.k = 18;
    params.restarts = 1;
    params.max_iterations = 20;
    benchmark::DoNotOptimize(ml::kmeans(space, params));
  }
}
BENCHMARK(BM_LloydPruned)->Arg(895)->Arg(8950)->Unit(benchmark::kMillisecond);

void BM_PairwiseDistances(benchmark::State& state) {
  const linalg::Matrix& space = blob_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::pairwise_distances(space));
  }
}
BENCHMARK(BM_PairwiseDistances)->Arg(895)->Arg(8950)->Unit(benchmark::kMillisecond);

void BM_SilhouetteUncached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix& space = blob_data(n);
  const std::vector<std::size_t>& assignment = blob_assignment(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::silhouette_score(space, assignment, kBlobCenters));
  }
}
BENCHMARK(BM_SilhouetteUncached)->Arg(895)->Arg(8950)->Unit(benchmark::kMillisecond);

void BM_SilhouetteCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ml::PairwiseDistances distances = ml::pairwise_distances(blob_data(n));
  const std::vector<std::size_t>& assignment = blob_assignment(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::silhouette_score(distances, assignment, kBlobCenters));
  }
}
BENCHMARK(BM_SilhouetteCached)->Arg(895)->Arg(8950)->Unit(benchmark::kMillisecond);

// --- Incremental PCA: fold one batch into the eigenbasis vs cold refit ---

constexpr std::size_t kPcaBatch = 32;

/// The fitted datacenter's refined + standardized metric matrix — the exact
/// frame the pipeline's tracked basis folds batches in (n≈895 × d≈85).
const linalg::Matrix& pca_stream_data() {
  static const linalg::Matrix kZ = [] {
    const auto& analysis = env().pipeline->analysis();
    return analysis.standardizer.transform(
        env().pipeline->database().to_matrix().select_columns(
            analysis.kept_columns));
  }();
  return kZ;
}

linalg::Matrix pca_rows(std::size_t begin, std::size_t end) {
  const linalg::Matrix& z = pca_stream_data();
  linalg::Matrix out(end - begin, z.cols());
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t c = 0; c < z.cols(); ++c) out(r - begin, c) = z(r, c);
  }
  return out;
}

/// Brand-style eigenbasis fold: start tracking from the fitted basis,
/// anchored at its kept components (as the pipeline's tracked copy is), and
/// fold the 75 freshest rows in — a scatter merge in the fitted frame plus
/// the leading-k eigensolve, no pass over the historical rows.
void BM_PcaUpdate(benchmark::State& state) {
  const std::size_t split = pca_stream_data().rows() - kPcaBatch;
  const linalg::Matrix batch = pca_rows(split, pca_stream_data().rows());
  ml::Pca fitted;
  fitted.fit(pca_rows(0, split));
  const std::size_t kept = fitted.num_components_for(0.95);
  ml::Standardizer moments;
  moments.fit(batch);
  for (auto _ : state) {
    ml::TrackedPca tracked(fitted, kept);
    tracked.fold(batch, moments);
    benchmark::DoNotOptimize(tracked);
  }
}
BENCHMARK(BM_PcaUpdate)->Unit(benchmark::kMillisecond);

/// What absorbing those 75 rows costs without the incremental update: a cold
/// covariance accumulation over all n rows plus a cold eigensolve.
void BM_PcaRefit(benchmark::State& state) {
  const linalg::Matrix& z = pca_stream_data();
  for (auto _ : state) {
    ml::Pca pca;
    pca.fit(z);
    benchmark::DoNotOptimize(pca);
  }
}
BENCHMARK(BM_PcaRefit)->Unit(benchmark::kMillisecond);

// --- Incremental ingest vs full refit (paper scale n≈895, batch=32) ---

constexpr std::size_t kIngestBatch = 32;

struct IngestFixture {
  dcsim::ScenarioSet base;   ///< the fitted population (n - 32 scenarios)
  dcsim::ScenarioSet batch;  ///< the 32 freshly observed scenarios
};

const IngestFixture& ingest_fixture() {
  static const IngestFixture kFixture = [] {
    IngestFixture f;
    const dcsim::ScenarioSet& all = env().set;
    f.base.machine_type = all.machine_type;
    f.batch.machine_type = all.machine_type;
    const std::size_t split = all.size() - kIngestBatch;
    for (std::size_t i = 0; i < all.size(); ++i) {
      (i < split ? f.base : f.batch).scenarios.push_back(all.scenarios[i]);
    }
    return f;
  }();
  return kFixture;
}

core::FlareConfig ingest_config() {
  core::FlareConfig config;
  config.analyzer.compute_quality_curve = false;
  return config;
}

/// The incremental data plane: kValid verdict → project + assign the 32 new
/// rows into the fitted space; zero stages re-run. Thresholds force kValid so
/// both benchmarks profile the identical batch and differ only in the action.
void BM_IngestIncremental(benchmark::State& state) {
  const IngestFixture& f = ingest_fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::FlareConfig config = ingest_config();
    config.drift.refit_distance_ratio = 1e6;
    config.drift.refit_coverage_fraction = 1.0;
    config.drift.reweight_threshold = 1.0;
    core::FlarePipeline pipeline(config);
    pipeline.fit(f.base);
    state.ResumeTiming();
    benchmark::DoNotOptimize(pipeline.ingest(f.batch));
  }
}
BENCHMARK(BM_IngestIncremental)->Iterations(5)->Unit(benchmark::kMillisecond);

/// The same batch absorbed with a forced full (warm-started) refit over the
/// combined population — what every ingest would cost without the staged
/// incremental path.
void BM_IngestFullRefit(benchmark::State& state) {
  const IngestFixture& f = ingest_fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::FlarePipeline pipeline(ingest_config());
    pipeline.fit(f.base);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        pipeline.ingest(f.batch, core::RefitPolicy::kAlways));
  }
}
BENCHMARK(BM_IngestFullRefit)->Iterations(5)->Unit(benchmark::kMillisecond);

void BM_FullPipelineFit(benchmark::State& state) {
  for (auto _ : state) {
    core::FlareConfig config;
    config.analyzer.compute_quality_curve = false;
    core::FlarePipeline pipeline(config);
    pipeline.fit(env().set);
    benchmark::DoNotOptimize(pipeline.analysis().representatives);
  }
}
BENCHMARK(BM_FullPipelineFit);

void BM_FeatureEstimate(benchmark::State& state) {
  // Fresh replayer each iteration so the cost ledger doesn't dedupe work.
  const auto& analysis = env().pipeline->analysis();
  const core::ImpactModel& impact = env().pipeline->impact_model();
  const core::Feature feature = core::feature_dvfs_cap();
  for (auto _ : state) {
    core::Replayer replayer(impact);
    const core::FlareEstimator estimator(analysis, env().set, replayer);
    benchmark::DoNotOptimize(estimator.estimate(feature));
  }
}
BENCHMARK(BM_FeatureEstimate);

// --- Large-append ingest kernel: what MetricDatabase::reserve buys ---

metrics::MetricRow ingest_row(std::size_t i, std::size_t width) {
  metrics::MetricRow row;
  row.scenario_id = i;
  row.scenario_key = "DC:" + std::to_string(i + 1);
  row.observation_weight = 1.0;
  row.values.assign(width, static_cast<double>(i));
  return row;
}

void BM_DatabaseAppend(benchmark::State& state) {
  const bool reserved = state.range(0) != 0;
  const std::size_t rows = 20000;
  const metrics::MetricCatalog& catalog = metrics::MetricCatalog::standard();
  for (auto _ : state) {
    metrics::MetricDatabase db(catalog);
    if (reserved) db.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      db.add_row(ingest_row(i, catalog.size()));
    }
    benchmark::DoNotOptimize(db.num_rows());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_DatabaseAppend)
    ->Arg(0)  // growth by doubling: every reallocation moves all MetricRows
    ->Arg(1)  // reserved up front: one allocation, zero moves
    ->ArgNames({"reserved"});

}  // namespace
// main() lives in bench_main.cpp (debug-build guard + build-type stamping).
