// Stage orchestration for the Analyzer. The stages themselves live in
// core/analysis_stages.cpp; analyze() runs all six in order, and the
// incremental paths (refit_incremental, recluster) run a suffix of the chain
// over a fitted result — each bumping the counters of exactly the stages it ran.
#include "core/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "linalg/covariance.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

/// nullptr = run inline; otherwise an owned pool sized by the `threads` knob
/// (0 = one worker per hardware thread).
std::unique_ptr<util::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

/// The rows and weights a fit is computed from. A degraded fit (some row
/// quarantined) keeps every row's population slot but takes its moments from
/// the healthy rows only, and quarantined rows carry zero weight.
struct FitMask {
  bool degraded = false;
  std::vector<std::size_t> healthy_rows;
  std::vector<double> weights;

  /// nullptr for a clean fit (every row), the healthy rows otherwise.
  [[nodiscard]] const std::vector<std::size_t>* rows() const {
    return degraded ? &healthy_rows : nullptr;
  }
};

FitMask fit_mask(const std::vector<double>& weights, const AnalysisHealth* health,
                 std::size_t min_clusters, const std::string& who) {
  ensure(health == nullptr || health->quarantined.empty() ||
             health->quarantined.size() == weights.size(),
         who + ": health mask must match the row count");
  FitMask fit;
  fit.degraded = health != nullptr && health->any_quarantined();
  fit.weights = weights;
  if (!fit.degraded) return fit;
  fit.healthy_rows.reserve(weights.size());
  double healthy_weight = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (health->quarantined[i]) {
      fit.weights[i] = 0.0;
    } else {
      fit.healthy_rows.push_back(i);
      healthy_weight += weights[i];
    }
  }
  if (fit.healthy_rows.size() < min_clusters) {
    throw QuarantineError(who + ": only " + std::to_string(fit.healthy_rows.size()) +
                          " rows survived quarantine but " +
                          std::to_string(min_clusters) + " clusters are required");
  }
  if (healthy_weight <= 0.0) {
    throw QuarantineError(who + ": quarantine removed all observation-weight mass");
  }
  return fit;
}

/// The books of a fit given `health` (an empty ledger for a fit without one).
QuarantineLedger quarantine_ledger(const std::vector<double>& weights,
                                   const AnalysisHealth* health) {
  QuarantineLedger ledger;
  if (health == nullptr) return ledger;
  ledger.imputed_cells = health->imputed_cells;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ledger.total_weight += weights[i];
    if (!health->quarantined.empty() && health->quarantined[i]) {
      ledger.quarantined_rows.push_back(i);
      ledger.quarantined_weight += weights[i];
    }
  }
  return ledger;
}

}  // namespace

std::vector<std::size_t> AnalysisResult::members_by_distance(
    std::size_t cluster) const {
  return clustering.members_by_distance(cluster_space, cluster);
}

Analyzer::Analyzer(AnalyzerConfig config) : config_(std::move(config)) {
  ensure(config_.variance_target > 0.0 && config_.variance_target <= 1.0,
         "Analyzer: variance_target must be in (0, 1]");
  ensure(config_.min_clusters >= 2, "Analyzer: min_clusters must be >= 2");
  ensure(config_.max_clusters >= config_.min_clusters,
         "Analyzer: max_clusters must be >= min_clusters");
}

AnalysisResult Analyzer::analyze(const metrics::MetricDatabase& db) const {
  const std::unique_ptr<util::ThreadPool> pool = make_pool(config_.threads);
  return analyze(db, pool.get());
}

AnalysisResult Analyzer::analyze(const metrics::MetricDatabase& db,
                                 util::ThreadPool* pool,
                                 const AnalysisHealth* health,
                                 const AnalysisResult* warm_start) const {
  ensure(db.num_rows() >= config_.min_clusters,
         "Analyzer::analyze: fewer scenarios than clusters");
  const linalg::Matrix raw = db.to_matrix();
  const std::vector<double> weights = db.weights();
  const FitMask fit = fit_mask(weights, health, config_.min_clusters,
                               "Analyzer::analyze");

  AnalysisResult result;

  // --- Refinement (§4.2): constants, then correlation duplicates ---
  stages::RefineOutput ro = stages::refine(raw, config_, fit.rows());
  result.kept_columns = std::move(ro.kept_columns);
  result.constant_columns = std::move(ro.constant_columns);
  result.refinement = std::move(ro.refinement);
  ++result.stage_counters.refine;

  // --- Standardisation (§4.3) ---
  stages::StandardizeOutput so = stages::standardize(ro.refined, fit.rows());
  result.standardizer = std::move(so.standardizer);
  ++result.stage_counters.standardize;

  // --- PCA + labelling (§4.3) ---
  stages::PcaOutput po = stages::fit_pca(so.standardized, result.kept_columns,
                                         db.catalog(), config_, pool, fit.rows());
  result.pca = std::move(po.pca);
  result.num_components = po.num_components;
  result.interpretations = std::move(po.interpretations);
  ++result.stage_counters.pca;

  // --- Whitened clustering space (§4.4) ---
  stages::WhitenOutput wo = stages::whiten(result.pca, result.num_components,
                                           so.standardized, config_, fit.rows());
  result.whitener = std::move(wo.whitener);
  result.whitened = wo.whitened;
  result.cluster_space = std::move(wo.cluster_space);
  ++result.stage_counters.whiten;

  // Warm-start seed (kRefit): the previous centroids, lifted back to raw
  // metric space and pushed through the freshly fitted stages. Columns the
  // previous fit dropped are filled from the new population's column means.
  linalg::Matrix warm;
  if (warm_start != nullptr && !warm_start->clustering.centroids.empty()) {
    warm = stages::project_rows(
        result, stages::centroids_to_raw(*warm_start, linalg::column_means(raw)));
  }

  // --- Cluster-count sweep + kept clustering (Fig. 9, §4.4) ---
  stages::ClusterOutput co =
      stages::cluster(result.cluster_space, fit.weights, config_, pool, warm);
  result.quality_curve = std::move(co.quality_curve);
  result.chosen_k = co.chosen_k;
  result.clustering = std::move(co.clustering);
  ++result.stage_counters.cluster;

  // --- Representatives & weights (§4.4–§4.5) ---
  // Degraded fits pick representatives with positive (healthy) weight only
  // — an imputed below-quorum row must never stand for a cluster.
  stages::RepresentativesOutput rep =
      stages::representatives(result.clustering, result.cluster_space,
                              result.chosen_k, fit.weights,
                              /*require_positive_weight=*/fit.degraded);
  result.representatives = std::move(rep.representatives);
  result.cluster_weights = std::move(rep.cluster_weights);
  ++result.stage_counters.representatives;

  result.quarantine = quarantine_ledger(weights, health);
  return result;
}

AnalysisResult Analyzer::recluster(const AnalysisResult& base,
                                   const std::vector<double>& new_weights,
                                   util::ThreadPool* pool) const {
  ensure(new_weights.size() == base.cluster_space.rows(),
         "Analyzer::recluster: weight count must match scenario count");
  double total = 0.0;
  for (std::size_t i = 0; i < new_weights.size(); ++i) {
    if (!std::isfinite(new_weights[i])) {
      throw FaultError("Analyzer::recluster: non-finite weight at row " +
                       std::to_string(i));
    }
    ensure(new_weights[i] >= 0.0, "Analyzer::recluster: weights must be non-negative");
    total += new_weights[i];
  }
  ensure(total > 0.0, "Analyzer::recluster: zero total weight");

  AnalysisResult result = base;  // reuse refinement, PCA, whitening, space

  // Re-cluster from Step 3 over the same high-level metric space: a
  // stage-level replay of the cluster + representative stages at the
  // already-chosen k, with the Fig. 9 sweep disabled (the base's quality
  // curve is kept as-is).
  AnalyzerConfig replay = config_;
  replay.fixed_clusters = base.chosen_k;
  replay.compute_quality_curve = false;
  stages::ClusterOutput co =
      stages::cluster(base.cluster_space, new_weights, replay, pool);
  result.chosen_k = co.chosen_k;
  result.clustering = std::move(co.clustering);
  ++result.stage_counters.cluster;

  stages::RepresentativesOutput rep =
      stages::representatives(result.clustering, result.cluster_space,
                              result.chosen_k, new_weights,
                              /*require_positive_weight=*/true);
  result.representatives = std::move(rep.representatives);
  result.cluster_weights = std::move(rep.cluster_weights);
  ++result.stage_counters.representatives;
  return result;
}

AnalysisResult Analyzer::refit_incremental(const metrics::MetricDatabase& db,
                                           const ml::Pca& updated_pca,
                                           const AnalysisResult& previous,
                                           util::ThreadPool* pool,
                                           const AnalysisHealth* health) const {
  ensure(previous.standardizer.fitted() && previous.pca.fitted(),
         "Analyzer::refit_incremental: previous analysis is not fitted");
  ensure(updated_pca.fitted() &&
             updated_pca.dimension() == previous.pca.dimension(),
         "Analyzer::refit_incremental: basis does not match the fitted frame");
  ensure(db.num_rows() >= config_.min_clusters,
         "Analyzer::refit_incremental: fewer scenarios than clusters");
  const linalg::Matrix raw = db.to_matrix();
  const std::vector<double> weights = db.weights();
  // Same quarantine semantics as analyze(): the standardizer and basis are
  // frozen/spliced anyway, so only the whitener moments and the weight mass
  // need masking here.
  const FitMask fit = fit_mask(weights, health, config_.min_clusters,
                               "Analyzer::refit_incremental");

  AnalysisResult result;
  result.stage_counters = previous.stage_counters;

  // Frozen upstream frame: the refinement and standardisation the tracked
  // basis was maintained in. Recomputing either would put the basis in a
  // different coordinate system than the one it was updated in.
  result.kept_columns = previous.kept_columns;
  result.constant_columns = previous.constant_columns;
  result.refinement = previous.refinement;
  result.standardizer = previous.standardizer;

  // Basis splice instead of a cold PCA fit — the whole point of the path.
  stages::PcaOutput po =
      stages::splice_pca(updated_pca, result.kept_columns, db.catalog(), config_);
  result.pca = std::move(po.pca);
  result.num_components = po.num_components;
  result.interpretations = std::move(po.interpretations);
  ++result.stage_counters.pca_incremental;

  // Downstream replay over the full population in the updated basis.
  const linalg::Matrix refined = raw.select_columns(result.kept_columns);
  const linalg::Matrix standardized = result.standardizer.transform(refined);
  stages::WhitenOutput wo = stages::whiten(result.pca, result.num_components,
                                           standardized, config_, fit.rows());
  result.whitener = std::move(wo.whitener);
  result.whitened = wo.whitened;
  result.cluster_space = std::move(wo.cluster_space);
  ++result.stage_counters.whiten;

  // Warm-start K-means at the previous chosen k from the previous centroids,
  // lifted to raw metric space and pushed through the spliced stages — the
  // same seeding the warm cold-refit uses. The Fig. 9 sweep is skipped; the
  // previous quality curve is carried over as-is (recluster semantics).
  linalg::Matrix warm;
  if (!previous.clustering.centroids.empty()) {
    warm = stages::project_rows(
        result, stages::centroids_to_raw(previous, linalg::column_means(raw)));
  }
  AnalyzerConfig replay = config_;
  replay.fixed_clusters = previous.chosen_k;
  replay.compute_quality_curve = false;
  stages::ClusterOutput co =
      stages::cluster(result.cluster_space, fit.weights, replay, pool, warm);
  result.quality_curve = previous.quality_curve;
  result.chosen_k = co.chosen_k;
  result.clustering = std::move(co.clustering);
  ++result.stage_counters.cluster;

  stages::RepresentativesOutput rep =
      stages::representatives(result.clustering, result.cluster_space,
                              result.chosen_k, fit.weights,
                              /*require_positive_weight=*/fit.degraded);
  result.representatives = std::move(rep.representatives);
  result.cluster_weights = std::move(rep.cluster_weights);
  ++result.stage_counters.representatives;

  result.quarantine = quarantine_ledger(weights, health);
  return result;
}

std::size_t Analyzer::suggest_k(const std::vector<ClusterQualityPoint>& curve,
                                double tolerance) {
  ensure(!curve.empty(), "Analyzer::suggest_k: empty quality curve");
  if (curve.size() < 3) return curve.front().k;

  // Fig. 9 guideline: "pick a point where the return starts to diminish".
  // Step 1 — SSE elbow via the max-distance-to-chord (Kneedle-style) rule on
  // the normalised curve.
  const double k_lo = static_cast<double>(curve.front().k);
  const double k_hi = static_cast<double>(curve.back().k);
  const double sse_lo = curve.back().sse;
  const double sse_hi = curve.front().sse;
  ensure(k_hi > k_lo, "Analyzer::suggest_k: curve must span multiple k");
  std::size_t knee_index = 0;
  double best_gap = -1.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double x = (static_cast<double>(curve[i].k) - k_lo) / (k_hi - k_lo);
    const double y = sse_hi > sse_lo
                         ? (curve[i].sse - sse_lo) / (sse_hi - sse_lo)
                         : 0.0;
    // The chord runs from (0,1) to (1,0); distance below it ∝ 1 - x - y.
    const double gap = 1.0 - x - y;
    if (gap > best_gap) {
      best_gap = gap;
      knee_index = i;
    }
  }

  // Step 2 — within a small window beyond the elbow, take the best
  // silhouette; among near-ties (within `tolerance`) prefer the larger k,
  // since clusters past the elbow are cheap insurance against smearing two
  // behaviours into one group.
  const std::size_t window_end = std::min(knee_index + 6, curve.size() - 1);
  std::size_t chosen = knee_index;
  double best_silhouette = curve[knee_index].silhouette;
  for (std::size_t i = knee_index; i <= window_end; ++i) {
    best_silhouette = std::max(best_silhouette, curve[i].silhouette);
  }
  for (std::size_t i = knee_index; i <= window_end; ++i) {
    if (curve[i].silhouette >= best_silhouette - tolerance) chosen = i;
  }
  return curve[chosen].k;
}

}  // namespace flare::core
