// Implementations of the composable analysis stages (core/analyzer.hpp,
// namespace stages). The Analyzer orchestrates these; each stage is a pure
// function of its arguments.
#include <algorithm>
#include <cmath>
#include <string>

#include "core/analyzer.hpp"
#include "ml/cluster_quality.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace stages {
namespace {

/// Columns whose variance is numerically zero carry no information and would
/// only add dead dimensions; real deployments always have a few (e.g. the
/// nominal frequency on a homogeneous fleet).
std::vector<std::size_t> non_constant_columns(const linalg::Matrix& data,
                                              std::vector<std::size_t>* constants) {
  std::vector<std::size_t> kept;
  for (std::size_t c = 0; c < data.cols(); ++c) {
    double lo = data(0, c), hi = data(0, c);
    for (std::size_t r = 1; r < data.rows(); ++r) {
      lo = std::min(lo, data(r, c));
      hi = std::max(hi, data(r, c));
    }
    const double scale = std::max({std::abs(lo), std::abs(hi), 1.0});
    if (hi - lo <= 1e-12 * scale) {
      if (constants != nullptr) constants->push_back(c);
    } else {
      kept.push_back(c);
    }
  }
  return kept;
}

/// Adapts a Ward clustering into the KMeansResult shape so downstream code
/// (representative selection, weights) is algorithm-agnostic. Fills
/// point_distances so nearest_member/members_by_distance skip the rescan,
/// exactly as the K-means path does.
ml::KMeansResult adapt_ward(const linalg::Matrix& space, std::size_t k) {
  const ml::AgglomerativeResult ward =
      ml::agglomerative_cluster(space, k, ml::Linkage::kWard);
  ml::KMeansResult result;
  result.centroids = ward.centroids;
  result.assignment = ward.assignment;
  result.cluster_sizes = ward.cluster_sizes;
  result.point_distances.resize(space.rows());
  result.sse = 0.0;
  for (std::size_t i = 0; i < space.rows(); ++i) {
    const double d = linalg::squared_distance(
        space.row(i), result.centroids.row(result.assignment[i]));
    result.point_distances[i] = d;
    result.sse += d;
  }
  result.iterations = 0;
  result.converged = true;
  return result;
}

}  // namespace

RefineOutput refine(const linalg::Matrix& raw, const AnalyzerConfig& config,
                    const std::vector<std::size_t>* fit_rows) {
  RefineOutput out;
  const bool subset = fit_rows != nullptr;
  if (subset) {
    ensure(!fit_rows->empty(), "stages::refine: no healthy rows to fit on");
  }
  const linalg::Matrix fit_matrix =
      subset ? raw.select_rows(*fit_rows) : linalg::Matrix();
  const linalg::Matrix& fit = subset ? fit_matrix : raw;
  std::vector<std::size_t> informative =
      non_constant_columns(fit, &out.constant_columns);
  ensure(!informative.empty(), "Analyzer::analyze: all metrics are constant");
  out.refined = raw.select_columns(informative);
  if (config.use_correlation_filter) {
    const ml::CorrelationFilter filter(config.correlation_threshold);
    out.refinement = subset ? filter.fit(fit.select_columns(informative))
                            : filter.fit(out.refined);
    // Map audit-trail and kept indices back to original catalog columns.
    out.refined = out.refined.select_columns(out.refinement.kept_columns);
    out.kept_columns.reserve(out.refinement.kept_columns.size());
    for (const std::size_t c : out.refinement.kept_columns) {
      out.kept_columns.push_back(informative[c]);
    }
    for (ml::CorrelationDrop& d : out.refinement.drops) {
      d.dropped_column = informative[d.dropped_column];
      d.kept_column = informative[d.kept_column];
    }
  } else {
    out.kept_columns = std::move(informative);
  }
  return out;
}

StandardizeOutput standardize(const linalg::Matrix& refined,
                              const std::vector<std::size_t>* fit_rows) {
  StandardizeOutput out;
  if (fit_rows == nullptr) {
    out.standardized = out.standardizer.fit_transform(refined);
  } else {
    ensure(!fit_rows->empty(), "stages::standardize: no healthy rows to fit on");
    out.standardizer.fit(refined.select_rows(*fit_rows));
    out.standardized = out.standardizer.transform(refined);
  }
  return out;
}

PcaOutput fit_pca(const linalg::Matrix& standardized,
                  const std::vector<std::size_t>& kept_columns,
                  const metrics::MetricCatalog& catalog,
                  const AnalyzerConfig& config, util::ThreadPool* pool,
                  const std::vector<std::size_t>* fit_rows) {
  PcaOutput out;
  if (fit_rows == nullptr) {
    out.pca.fit(standardized, pool);
  } else {
    ensure(!fit_rows->empty(), "stages::fit_pca: no healthy rows to fit on");
    out.pca.fit(standardized.select_rows(*fit_rows), pool);
  }
  out.num_components = out.pca.num_components_for(config.variance_target);
  out.interpretations = interpret_components(out.pca, kept_columns, catalog,
                                             out.num_components, config.labeler);
  return out;
}

PcaOutput splice_pca(const ml::Pca& updated_pca,
                     const std::vector<std::size_t>& kept_columns,
                     const metrics::MetricCatalog& catalog,
                     const AnalyzerConfig& config) {
  ensure(updated_pca.fitted(), "stages::splice_pca: basis is not fitted");
  ensure(updated_pca.dimension() == kept_columns.size(),
         "stages::splice_pca: basis dimension must match the kept columns");
  PcaOutput out;
  out.pca = updated_pca;
  out.num_components = out.pca.num_components_for(config.variance_target);
  out.interpretations = interpret_components(out.pca, kept_columns, catalog,
                                             out.num_components, config.labeler);
  return out;
}

WhitenOutput whiten(const ml::Pca& pca, std::size_t num_components,
                    const linalg::Matrix& standardized,
                    const AnalyzerConfig& config,
                    const std::vector<std::size_t>* fit_rows) {
  WhitenOutput out;
  const linalg::Matrix scores = pca.transform(standardized, num_components);
  out.whitened = config.whiten;
  if (fit_rows == nullptr) {
    if (config.whiten) {
      out.cluster_space = out.whitener.fit_transform(scores);
    } else {
      out.whitener.fit(scores);  // fitted for API symmetry, not applied
      out.cluster_space = scores;
    }
  } else {
    ensure(!fit_rows->empty(), "stages::whiten: no healthy rows to fit on");
    out.whitener.fit(scores.select_rows(*fit_rows));
    out.cluster_space = config.whiten ? out.whitener.transform(scores) : scores;
  }
  return out;
}

ClusterOutput cluster(const linalg::Matrix& cluster_space,
                      const std::vector<double>& weights,
                      const AnalyzerConfig& config, util::ThreadPool* pool,
                      const linalg::Matrix& warm_centroids) {
  ClusterOutput out;
  const std::size_t n = cluster_space.rows();

  // --- Cluster-count sweep (Fig. 9) ---
  ml::KMeansParams base_params = config.kmeans;
  if (config.weight_clustering_by_observation) {
    base_params.weights = weights;
  }
  // kmeans uses the seed only for the restart whose k matches its row count,
  // so sweep points at other k are unaffected (batch fits pass no seed).
  base_params.initial_centroids = warm_centroids;

  // Million-scenario guards (DESIGN.md §12). Both default to the paper-scale
  // behavior: exact solver, exact silhouette over the shared n×n distance
  // cache. Populations beyond the thresholds switch to the coreset solver
  // and/or the sampled silhouette estimator — the n×n cache alone would be
  // 80 GB at n = 10^5.
  const bool use_minibatch =
      config.algorithm == ClusterAlgorithm::kKMeans &&
      (config.kmeans_mode == KMeansMode::kMiniBatch ||
       (config.kmeans_mode == KMeansMode::kAuto &&
        n > config.minibatch_threshold));
  const bool exact_silhouette = n <= config.silhouette_exact_threshold;
  const std::size_t k_lo = config.min_clusters;
  const std::size_t k_hi = std::min(config.max_clusters, cluster_space.rows() - 1);
  const bool sweep = config.compute_quality_curve || !config.fixed_clusters;
  // The exact solver's seeding picks at k are the first k of its picks at
  // k_hi (ml::kmeans_seeds), so a sweep seeds each restart once instead of
  // once per k; every result is the unseeded kmeans' bit for bit.
  const bool shared_seeds = sweep && k_hi >= k_lo &&
                            config.algorithm == ClusterAlgorithm::kKMeans &&
                            !use_minibatch;
  const ml::KMeansSeeds seeds =
      shared_seeds ? ml::kmeans_seeds(cluster_space, base_params, k_hi, pool)
                   : ml::KMeansSeeds();
  // One fixed row sample scores every sweep point, mirroring how the exact
  // path shares one distance cache — curves stay comparable across k.
  const auto solve = [&](std::size_t k, util::ThreadPool* solver_pool) {
    if (config.algorithm != ClusterAlgorithm::kKMeans) {
      return adapt_ward(cluster_space, k);
    }
    ml::KMeansParams params = base_params;
    params.k = k;
    if (shared_seeds) return ml::kmeans(cluster_space, params, seeds, solver_pool);
    if (!use_minibatch) return ml::kmeans(cluster_space, params, solver_pool);
    ml::MiniBatchKMeansParams mb;
    mb.kmeans = params;
    mb.coreset = config.coreset;
    mb.refine_iterations = config.minibatch_refine_iterations;
    return ml::minibatch_kmeans(cluster_space, mb, solver_pool);
  };

  // Sweep results worth keeping, by k - k_lo. Under auto-k the sweep's own
  // solve of the chosen k is the clustering: kmeans gives the same result
  // for every thread count, so re-solving it after the sweep would only
  // repeat the work. On the exact-silhouette path every point's result is
  // kept until the choice is made (they are small next to the n×n cache);
  // otherwise only the fixed k's is.
  std::vector<ml::KMeansResult> kept;
  if (sweep && k_hi >= k_lo) {
    // Every sweep point scores the SAME fixed point set, so the O(n²·dim)
    // pairwise distances are computed once and shared across all k. Sweep
    // points are independent: each task owns its quality_curve slot and its
    // slot of `kept`. The per-k kmeans runs inline in its task (nested pool
    // use is forbidden).
    const ml::PairwiseDistances distances =
        exact_silhouette ? ml::pairwise_distances(cluster_space, pool)
                         : ml::PairwiseDistances();
    out.quality_curve.assign(k_hi - k_lo + 1, ClusterQualityPoint{});
    const bool keep_all = exact_silhouette && !config.fixed_clusters.has_value();
    kept.resize(out.quality_curve.size());
    util::maybe_parallel_for(pool, out.quality_curve.size(), [&](std::size_t idx) {
      const std::size_t k = k_lo + idx;
      ml::KMeansResult kr = solve(k, nullptr);
      ClusterQualityPoint& point = out.quality_curve[idx];
      point.k = k;
      point.sse = kr.sse;
      if (exact_silhouette) {
        point.silhouette = ml::silhouette_score(distances, kr.assignment, k);
      } else {
        point.silhouette = ml::silhouette_score_sampled(
            cluster_space, kr.assignment, k, config.silhouette_sample,
            config.kmeans.seed);
        point.silhouette_estimated = true;
      }
      if (keep_all || (config.fixed_clusters.has_value() && k == *config.fixed_clusters)) {
        kept[idx] = std::move(kr);
      }
    });
  }

  out.chosen_k = config.fixed_clusters.has_value()
                     ? *config.fixed_clusters
                     : Analyzer::suggest_k(out.quality_curve);
  ensure(out.chosen_k >= config.min_clusters && out.chosen_k <= k_hi,
         "stages::cluster: chosen cluster count is out of the sweep range");
  if (out.chosen_k - k_lo < kept.size()) {
    out.clustering = std::move(kept[out.chosen_k - k_lo]);
  }
  if (out.clustering.assignment.empty()) {
    out.clustering = solve(out.chosen_k, pool);
  }
  return out;
}

RepresentativesOutput representatives(const ml::KMeansResult& clustering,
                                      const linalg::Matrix& cluster_space,
                                      std::size_t k,
                                      const std::vector<double>& weights,
                                      bool require_positive_weight) {
  ensure(weights.size() == clustering.assignment.size(),
         "stages::representatives: weight count must match scenario count");
  double total = 0.0;
  for (const double w : weights) total += w;
  ensure(total > 0.0, "stages::representatives: zero total observation weight");

  RepresentativesOutput out;
  out.representatives.resize(k);
  out.cluster_weights.assign(k, 0.0);
  if (require_positive_weight) {
    // Representatives must be scenarios that actually occur under the new
    // weighting: walk outward from the centroid past zero-weight members.
    for (std::size_t c = 0; c < k; ++c) {
      const std::vector<std::size_t> ordered =
          clustering.members_by_distance(cluster_space, c);
      ensure(!ordered.empty(), "stages::representatives: empty cluster");
      std::size_t chosen = ordered.front();
      for (const std::size_t member : ordered) {
        if (weights[member] > 0.0) {
          chosen = member;
          break;
        }
      }
      out.representatives[c] = chosen;
    }
  } else {
    for (std::size_t c = 0; c < k; ++c) {
      out.representatives[c] = clustering.nearest_member(cluster_space, c);
    }
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out.cluster_weights[clustering.assignment[i]] += weights[i] / total;
  }
  return out;
}

linalg::Matrix project_rows(const AnalysisResult& fitted,
                            const linalg::Matrix& raw) {
  ensure(fitted.standardizer.fitted() && fitted.pca.fitted(),
         "stages::project_rows: analysis is not fitted");
  ensure(!fitted.kept_columns.empty(), "stages::project_rows: no kept columns");
  ensure(raw.cols() > *std::max_element(fitted.kept_columns.begin(),
                                        fitted.kept_columns.end()),
         "stages::project_rows: batch schema is narrower than the fitted one");
  const linalg::Matrix refined = raw.select_columns(fitted.kept_columns);
  const linalg::Matrix standardized = fitted.standardizer.transform(refined);
  linalg::Matrix scores = fitted.pca.transform(standardized, fitted.num_components);
  if (fitted.whitened) scores = fitted.whitener.transform(scores);
  return scores;
}

NearestAssignment assign_to_nearest(const ml::KMeansResult& clustering,
                                    const linalg::Matrix& points) {
  ensure(!clustering.centroids.empty(),
         "stages::assign_to_nearest: clustering has no centroids");
  ensure(points.cols() == clustering.centroids.cols(),
         "stages::assign_to_nearest: dimension mismatch");
  NearestAssignment out;
  out.cluster.resize(points.rows());
  out.dist_sq.resize(points.rows());
  ml::nearest_centroids(points, clustering.centroids, out.cluster, out.dist_sq);
  return out;
}

void absorb_rows(AnalysisResult& analysis, const linalg::Matrix& projected,
                 const std::vector<double>& combined_weights,
                 bool refresh_representatives) {
  ensure(!analysis.clustering.assignment.empty(),
         "stages::absorb_rows: analysis has no clustering");
  ensure(projected.rows() > 0, "stages::absorb_rows: empty batch");
  ensure(projected.cols() == analysis.cluster_space.cols(),
         "stages::absorb_rows: projected dimension mismatch");
  ensure(combined_weights.size() ==
             analysis.cluster_space.rows() + projected.rows(),
         "stages::absorb_rows: weight count must cover old and new rows");

  const NearestAssignment nearest =
      assign_to_nearest(analysis.clustering, projected);

  // Grow the cluster space and the per-point clustering records in place.
  std::vector<double> grown = analysis.cluster_space.data();
  grown.insert(grown.end(), projected.data().begin(), projected.data().end());
  const std::size_t new_rows = analysis.cluster_space.rows() + projected.rows();
  analysis.cluster_space =
      linalg::Matrix(new_rows, projected.cols(), std::move(grown));
  for (std::size_t r = 0; r < projected.rows(); ++r) {
    analysis.clustering.assignment.push_back(nearest.cluster[r]);
    analysis.clustering.point_distances.push_back(nearest.dist_sq[r]);
    ++analysis.clustering.cluster_sizes[nearest.cluster[r]];
    analysis.clustering.sse += nearest.dist_sq[r];
  }

  // Refresh the cluster observation weights over the combined population.
  double total = 0.0;
  for (std::size_t i = 0; i < combined_weights.size(); ++i) {
    const double w = combined_weights[i];
    if (!std::isfinite(w)) {
      throw FaultError("stages::absorb_rows: non-finite weight at row " +
                       std::to_string(i));
    }
    ensure(w >= 0.0, "stages::absorb_rows: weights must be non-negative");
    total += w;
  }
  ensure(total > 0.0, "stages::absorb_rows: zero total weight");
  analysis.cluster_weights.assign(analysis.chosen_k, 0.0);
  for (std::size_t i = 0; i < combined_weights.size(); ++i) {
    analysis.cluster_weights[analysis.clustering.assignment[i]] +=
        combined_weights[i] / total;
  }

  if (refresh_representatives) {
    for (std::size_t c = 0; c < analysis.chosen_k; ++c) {
      const std::vector<std::size_t> ordered = analysis.members_by_distance(c);
      ensure(!ordered.empty(), "stages::absorb_rows: empty cluster");
      std::size_t chosen = ordered.front();
      for (const std::size_t member : ordered) {
        if (combined_weights[member] > 0.0) {
          chosen = member;
          break;
        }
      }
      analysis.representatives[c] = chosen;
    }
    ++analysis.stage_counters.representatives;
  }
}

linalg::Matrix centroids_to_raw(const AnalysisResult& fitted,
                                const std::vector<double>& fallback_columns) {
  ensure(!fitted.clustering.centroids.empty(),
         "stages::centroids_to_raw: analysis has no centroids");
  ensure(fitted.standardizer.fitted() && fitted.pca.fitted(),
         "stages::centroids_to_raw: analysis is not fitted");
  const linalg::Matrix scores =
      fitted.whitened ? fitted.whitener.inverse_transform(fitted.clustering.centroids)
                      : fitted.clustering.centroids;
  const linalg::Matrix standardized = fitted.pca.inverse_transform(scores);
  const linalg::Matrix refined = fitted.standardizer.inverse_transform(standardized);

  std::size_t max_kept = 0;
  for (const std::size_t c : fitted.kept_columns) max_kept = std::max(max_kept, c);
  ensure(fallback_columns.size() > max_kept,
         "stages::centroids_to_raw: fallback is narrower than the fitted schema");
  linalg::Matrix raw(refined.rows(), fallback_columns.size());
  for (std::size_t r = 0; r < raw.rows(); ++r) {
    for (std::size_t c = 0; c < raw.cols(); ++c) raw(r, c) = fallback_columns[c];
    for (std::size_t j = 0; j < fitted.kept_columns.size(); ++j) {
      raw(r, fitted.kept_columns[j]) = refined(r, j);
    }
  }
  return raw;
}

}  // namespace stages
}  // namespace flare::core
