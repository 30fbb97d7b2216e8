// Two-pass streaming analysis over a ColumnStore (core/out_of_core.hpp).
#include "core/out_of_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/pc_labeler.hpp"
#include "linalg/kernels.hpp"
#include "ml/impute.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

/// Streaming per-column statistics over the whole store: extrema, mean and
/// the full d × d comoment matrix  C(i,j) = Σ (x_i - μ_i)(x_j - μ_j),
/// merged block by block with Chan's identity.
struct StreamedMoments {
  std::size_t count = 0;
  std::vector<double> mean, lo, hi;
  linalg::Matrix comoment;
};

/// Sums and extrema of the block's columns [c0, c0 + Lanes): each column
/// sums its rows in order from 0.0, and the Lanes independent add chains
/// overlap instead of one latency-bound chain per column.
template <std::size_t Lanes>
void column_stats(const metrics::BlockView& block, std::size_t c0,
                  StreamedMoments& m, double* sums) {
  const double* x[Lanes];
  double sum[Lanes], lo[Lanes], hi[Lanes];
  for (std::size_t l = 0; l < Lanes; ++l) {
    x[l] = block.column(c0 + l).data();
    sum[l] = 0.0;
    lo[l] = m.lo[c0 + l];
    hi[l] = m.hi[c0 + l];
  }
  for (std::size_t r = 0; r < block.rows; ++r) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      sum[l] += x[l][r];
      lo[l] = std::min(lo[l], x[l][r]);
      hi[l] = std::max(hi[l], x[l][r]);
    }
  }
  for (std::size_t l = 0; l < Lanes; ++l) {
    sums[c0 + l] = sum[l];
    m.lo[c0 + l] = lo[l];
    m.hi[c0 + l] = hi[l];
  }
}

/// Throws require_finite's FaultError at the first non-finite cell of column
/// `c` of `block`, naming its store row (none: finite cells overflowed).
void reject_non_finite_column(const metrics::BlockView& block, std::size_t c) {
  const std::span<const double> column = block.column(c);
  for (std::size_t r = 0; r < column.size(); ++r) {
    if (!std::isfinite(column[r])) {
      ml::throw_non_finite("analyze_out_of_core", block.first_row + r, c);
    }
  }
}

/// Folds one column-major block of every store column into the moments. A
/// non-finite cell is a fault, as in RAM (std::min/max would drop a NaN):
/// a non-finite column sum sends its column to a rescan.
void fold_block(StreamedMoments& m, const metrics::BlockView& block,
                util::ThreadPool* pool) {
  const std::size_t rows = block.rows;
  const std::size_t d = block.num_columns;
  std::vector<double> block_mean(d);
  constexpr std::size_t kLanes = 4;
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    column_stats<kLanes>(block, c, m, block_mean.data());
  }
  for (; c < d; ++c) column_stats<1>(block, c, m, block_mean.data());
  for (std::size_t j = 0; j < d; ++j) {
    if (!std::isfinite(block_mean[j])) reject_non_finite_column(block, j);
  }
  for (double& v : block_mean) v /= static_cast<double>(rows);

  // Block comoment from the shared cross-product kernel (bit-identical for
  // any thread count, the repo-wide contract), then the Chan merge into the
  // running moments.
  const linalg::Matrix block_comoment = linalg::centered_cross_products(
      linalg::StridedView{block.values, rows, d, 1, block.stride}, block_mean,
      pool);
  const double n1 = static_cast<double>(m.count);
  const double n2 = static_cast<double>(rows);
  const double n = n1 + n2;
  for (std::size_t i = 0; i < d; ++i) {
    const double delta_i = block_mean[i] - m.mean[i];
    for (std::size_t j = i; j < d; ++j) {
      const double delta_j = block_mean[j] - m.mean[j];
      const double merged = m.comoment(i, j) + block_comoment(i, j) +
                            delta_i * delta_j * n1 * n2 / n;
      m.comoment(i, j) = merged;
      m.comoment(j, i) = merged;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    m.mean[c] = (n1 * m.mean[c] + n2 * block_mean[c]) / n;
  }
  m.count += rows;
}

/// Pearson r of two (original-index) columns from the comoment matrix.
double correlation_from_comoment(const linalg::Matrix& comoment, std::size_t i,
                                 std::size_t j) {
  if (i == j) return 1.0;
  const double denom = std::sqrt(comoment(i, i) * comoment(j, j));
  return denom > 0.0 ? comoment(i, j) / denom : 0.0;
}

}  // namespace

AnalysisResult analyze_out_of_core(const metrics::ColumnStore& store,
                                   const AnalyzerConfig& config,
                                   const OutOfCoreOptions& options,
                                   util::ThreadPool* pool,
                                   OutOfCoreTelemetry* telemetry) {
  const std::size_t n = store.num_rows();
  const std::size_t d = store.num_metrics();
  ensure(n >= config.min_clusters,
         "analyze_out_of_core: fewer scenarios than clusters");
  ensure(n >= 2, "analyze_out_of_core: need at least two rows");

  OutOfCoreTelemetry local;
  OutOfCoreTelemetry& tel = telemetry != nullptr ? *telemetry : local;
  tel = OutOfCoreTelemetry{};
  tel.dense_bytes = n * d * sizeof(double);

  // ---- Pass 1: moments ----
  StreamedMoments moments;
  moments.mean.assign(d, 0.0);
  moments.lo.assign(d, std::numeric_limits<double>::infinity());
  moments.hi.assign(d, -std::numeric_limits<double>::infinity());
  moments.comoment = linalg::Matrix(d, d);
  std::vector<double> weights;
  weights.reserve(n);
  std::vector<std::size_t> all_columns(d);
  std::iota(all_columns.begin(), all_columns.end(), std::size_t{0});
  store.for_each_block(all_columns, [&](const metrics::BlockView& block) {
    fold_block(moments, block, pool);
    weights.insert(weights.end(), block.weights.begin(), block.weights.end());
    ++tel.blocks_streamed;
  });
  ++tel.passes;

  AnalysisResult result;

  // ---- Refinement from moments (bit-identical decisions to stages::refine:
  // the constant rule reads only extrema, the duplicate rule only r) ----
  std::vector<std::size_t> informative;
  for (std::size_t c = 0; c < d; ++c) {
    const double scale =
        std::max({std::abs(moments.lo[c]), std::abs(moments.hi[c]), 1.0});
    if (moments.hi[c] - moments.lo[c] <= 1e-12 * scale) {
      result.constant_columns.push_back(c);
    } else {
      informative.push_back(c);
    }
  }
  ensure(!informative.empty(), "analyze_out_of_core: all metrics are constant");
  if (config.use_correlation_filter) {
    linalg::Matrix corr(informative.size(), informative.size());
    for (std::size_t i = 0; i < informative.size(); ++i) {
      for (std::size_t j = 0; j < informative.size(); ++j) {
        corr(i, j) =
            correlation_from_comoment(moments.comoment, informative[i],
                                      informative[j]);
      }
    }
    const ml::CorrelationFilter filter(config.correlation_threshold);
    result.refinement = filter.fit_from_correlation(corr);
    result.kept_columns.reserve(result.refinement.kept_columns.size());
    for (const std::size_t c : result.refinement.kept_columns) {
      result.kept_columns.push_back(informative[c]);
    }
    for (ml::CorrelationDrop& drop : result.refinement.drops) {
      drop.dropped_column = informative[drop.dropped_column];
      drop.kept_column = informative[drop.kept_column];
    }
  } else {
    result.kept_columns = informative;
  }
  ++result.stage_counters.refine;
  const std::size_t kept = result.kept_columns.size();

  // ---- Standardizer + PCA from the same moments. The covariance of the
  // standardised kept columns (n−1 normalisation throughout) is exactly
  // their correlation matrix:  C_ij / √(C_ii·C_jj). ----
  {
    std::vector<double> kept_means(kept), kept_m2(kept);
    for (std::size_t i = 0; i < kept; ++i) {
      kept_means[i] = moments.mean[result.kept_columns[i]];
      kept_m2[i] =
          moments.comoment(result.kept_columns[i], result.kept_columns[i]);
    }
    result.standardizer = ml::Standardizer::from_moments(
        std::move(kept_means), std::move(kept_m2), n);
  }
  ++result.stage_counters.standardize;

  {
    linalg::Matrix corr_kept(kept, kept);
    for (std::size_t i = 0; i < kept; ++i) {
      for (std::size_t j = 0; j < kept; ++j) {
        corr_kept(i, j) =
            correlation_from_comoment(moments.comoment, result.kept_columns[i],
                                      result.kept_columns[j]);
      }
    }
    result.pca.fit_from_covariance(std::vector<double>(kept, 0.0), corr_kept, n);
  }
  result.num_components = result.pca.num_components_for(config.variance_target);
  result.interpretations =
      interpret_components(result.pca, result.kept_columns, store.catalog(),
                           result.num_components, config.labeler);
  ++result.stage_counters.pca;

  // ---- Budget check: the score matrix is the only O(n) allocation. ----
  const std::size_t score_bytes = n * result.num_components * sizeof(double);
  tel.resident_bytes = score_bytes;
  if (options.memory_budget_bytes > 0 &&
      score_bytes > options.memory_budget_bytes) {
    throw NumericalError(
        "analyze_out_of_core: the " + std::to_string(score_bytes) +
        "-byte score matrix (" + std::to_string(n) + " rows × " +
        std::to_string(result.num_components) +
        " components) exceeds the memory budget of " +
        std::to_string(options.memory_budget_bytes) + " bytes");
  }

  // ---- Pass 2: project every block into the score matrix. Only the kept
  // columns are read; each is standardised straight from the block with
  // Standardizer::transform's expression into the rows × kept input of
  // Pca::transform. ----
  linalg::Matrix scores(n, result.num_components);
  linalg::Matrix standardized;
  const std::vector<double>& kept_means = result.standardizer.means();
  const std::vector<double>& kept_scales = result.standardizer.scales();
  store.for_each_block(result.kept_columns, [&](const metrics::BlockView& block) {
    if (standardized.rows() != block.rows) {
      standardized = linalg::Matrix(block.rows, kept);
    }
    // 64 rows at a time, so the strided writes of each column land in an
    // L1-sized slice of the output.
    constexpr std::size_t kRowSlice = 64;
    for (std::size_t r0 = 0; r0 < block.rows; r0 += kRowSlice) {
      const std::size_t r1 = std::min(block.rows, r0 + kRowSlice);
      for (std::size_t k = 0; k < kept; ++k) {
        const double* x = block.column(k).data();
        const double mean = kept_means[k];
        const double scale = kept_scales[k];
        for (std::size_t r = r0; r < r1; ++r) {
          standardized(r, k) = (x[r] - mean) / scale;
        }
      }
    }
    const linalg::Matrix block_scores =
        result.pca.transform(standardized, result.num_components);
    for (std::size_t r = 0; r < block_scores.rows(); ++r) {
      scores.set_row(block.first_row + r, block_scores.row(r));
    }
    ++tel.blocks_streamed;
  });
  ++tel.passes;

  // ---- Whiten → cluster → representatives on the compact matrix, exactly
  // as the in-RAM stages run them. ----
  result.whitener.fit(scores);
  result.whitened = config.whiten;
  // Whitening is per-element (x − mean)/scale, so it runs in place on the
  // moved score matrix: the peak residency stays one n × ncomp matrix, and
  // each element matches Whitener::transform bit for bit (same expression,
  // no accumulation to reassociate).
  result.cluster_space = std::move(scores);
  if (config.whiten) {
    const std::vector<double>& means = result.whitener.means();
    const std::vector<double>& scales = result.whitener.scales();
    for (std::size_t r = 0; r < result.cluster_space.rows(); ++r) {
      for (std::size_t c = 0; c < result.cluster_space.cols(); ++c) {
        result.cluster_space(r, c) =
            (result.cluster_space(r, c) - means[c]) / scales[c];
      }
    }
  }
  ++result.stage_counters.whiten;

  stages::ClusterOutput co =
      stages::cluster(result.cluster_space, weights, config, pool);
  result.quality_curve = std::move(co.quality_curve);
  result.chosen_k = co.chosen_k;
  result.clustering = std::move(co.clustering);
  ++result.stage_counters.cluster;

  stages::RepresentativesOutput rep = stages::representatives(
      result.clustering, result.cluster_space, result.chosen_k, weights,
      /*require_positive_weight=*/false);
  result.representatives = std::move(rep.representatives);
  result.cluster_weights = std::move(rep.cluster_weights);
  ++result.stage_counters.representatives;
  return result;
}

}  // namespace flare::core
