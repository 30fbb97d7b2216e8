// Stage orchestration for the Analyzer. The stages themselves live in
// core/analysis_stages.cpp; this file decides, per stage, whether the
// previous result's output can be spliced in (input fingerprints equal) or
// the stage must recompute — and keeps the recompute counters honest.
#include "core/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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

/// Fingerprints for the upstream stages (raw input through the whitened
/// cluster space). Each stage chains its upstream fingerprint with the bits
/// of exactly the config knobs it reads, so equality across two analyses
/// pins the whole input lineage. The cluster/representative fingerprints
/// need the warm-start centroids and weights and are chained in analyze().
StageFingerprints upstream_fingerprints(const linalg::Matrix& raw,
                                        const metrics::MetricCatalog& catalog,
                                        const AnalyzerConfig& cfg,
                                        std::uint64_t health_salt = 0) {
  StageFingerprints fp;
  std::uint64_t h = fingerprint_matrix(raw);
  for (const metrics::MetricInfo& m : catalog.metrics()) {
    h = util::fnv1a(m.name, h);
  }
  // Degraded fits mix the quarantine mask into the lineage root: a fit that
  // ignored some rows' moments must never splice with a clean fit over the
  // same bytes (health_salt == 0 for clean fits, preserving their hashes).
  if (health_salt != 0) h = util::hash_mix(h, health_salt);
  // Sharded fits mix the shard's lineage tag the same way: two shards fed
  // byte-identical databases must never splice each other's stages
  // (lineage_tag == 0 for unsharded fits, preserving their hashes).
  if (cfg.lineage_tag != 0) h = util::hash_mix(h, cfg.lineage_tag);
  fp.raw = h;
  h = util::hash_mix(fp.raw, cfg.use_correlation_filter ? 1u : 0u);
  fp.refine = hash_mix(h, cfg.correlation_threshold);
  fp.standardize = util::hash_mix(fp.refine, 0x5354Du);  // stage tag, no knobs
  h = hash_mix(fp.standardize, cfg.variance_target);
  h = util::hash_mix(h, cfg.labeler.max_contributors);
  fp.pca = hash_mix(h, cfg.labeler.min_abs_loading);
  fp.whiten = util::hash_mix(fp.pca, cfg.whiten ? 1u : 0u);
  return fp;
}

/// Hash of the quarantine mask (0 when nothing is quarantined): one bit per
/// row, packed, plus the row count.
std::uint64_t health_fingerprint(const AnalysisHealth* health) {
  if (health == nullptr || !health->any_quarantined()) return 0;
  std::uint64_t h = util::hash_mix(0x51A8A17Eull, health->quarantined.size());
  std::uint64_t word = 0;
  std::size_t bits = 0;
  for (const bool q : health->quarantined) {
    word = (word << 1) | (q ? 1u : 0u);
    if (++bits == 64) {
      h = util::hash_mix(h, word);
      word = 0;
      bits = 0;
    }
  }
  if (bits != 0) h = util::hash_mix(h, word);
  return h;
}

/// Chains the clustering-stage fingerprint from the whiten fingerprint, the
/// clustering knobs, the K-means weights (when clustering is weighted) and
/// the warm-start seed (a warm refit may converge differently, so it must
/// not be conflated with a cold fit of the same data).
std::uint64_t cluster_fingerprint(std::uint64_t whiten_fp,
                                  const AnalyzerConfig& cfg,
                                  const std::vector<double>& weights,
                                  const linalg::Matrix& warm_centroids) {
  std::uint64_t h = util::hash_mix(whiten_fp, static_cast<std::uint64_t>(cfg.algorithm));
  h = util::hash_mix(h, cfg.fixed_clusters ? *cfg.fixed_clusters + 1 : 0u);
  h = util::hash_mix(h, cfg.min_clusters);
  h = util::hash_mix(h, cfg.max_clusters);
  h = util::hash_mix(h, cfg.compute_quality_curve ? 1u : 0u);
  h = util::hash_mix(h, static_cast<std::uint64_t>(cfg.kmeans.max_iterations));
  h = util::hash_mix(h, static_cast<std::uint64_t>(cfg.kmeans.restarts));
  h = hash_mix(h, cfg.kmeans.tolerance);
  h = util::hash_mix(h, cfg.kmeans.seed);
  h = util::hash_mix(h, static_cast<std::uint64_t>(cfg.kmeans.init));
  // `prune` is deliberately excluded: pruned and naive assignment are
  // bit-identical, so the flag cannot change the stage output.
  // Scale knobs (DESIGN.md §12): the solver mode, coreset geometry and the
  // silhouette estimator thresholds all change what the stage emits, so they
  // pin the lineage like any other clustering knob.
  h = util::hash_mix(h, static_cast<std::uint64_t>(cfg.kmeans_mode));
  h = util::hash_mix(h, cfg.minibatch_threshold);
  h = util::hash_mix(h, cfg.coreset.size);
  h = util::hash_mix(h, cfg.coreset.seed);
  h = util::hash_mix(h, static_cast<std::uint64_t>(cfg.minibatch_refine_iterations));
  h = util::hash_mix(h, cfg.silhouette_exact_threshold);
  h = util::hash_mix(h, cfg.silhouette_sample);
  h = util::hash_mix(h, cfg.weight_clustering_by_observation ? 1u : 0u);
  if (cfg.weight_clustering_by_observation) h = fingerprint_doubles(weights, h);
  if (!warm_centroids.empty()) h = fingerprint_matrix(warm_centroids, h);
  return h;
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
                                 util::ThreadPool* pool) const {
  return analyze(db, pool, nullptr);
}

AnalysisResult Analyzer::analyze(const metrics::MetricDatabase& db,
                                 util::ThreadPool* pool,
                                 const AnalysisResult* previous,
                                 bool warm_start,
                                 const AnalysisHealth* health) const {
  ensure(db.num_rows() >= config_.min_clusters,
         "Analyzer::analyze: fewer scenarios than clusters");
  const linalg::Matrix raw = db.to_matrix();
  const std::vector<double> weights = db.weights();

  // Degraded fit: quarantined rows keep their population slot but are
  // excluded from every fitted moment and carry zero weight mass.
  ensure(health == nullptr || health->quarantined.empty() ||
             health->quarantined.size() == db.num_rows(),
         "Analyzer::analyze: health mask must match the row count");
  const bool degraded = health != nullptr && health->any_quarantined();
  std::vector<std::size_t> healthy_rows;
  std::vector<double> fit_weights = weights;
  if (degraded) {
    healthy_rows.reserve(db.num_rows());
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      if (health->quarantined[i]) {
        fit_weights[i] = 0.0;
      } else {
        healthy_rows.push_back(i);
      }
    }
    if (healthy_rows.size() < config_.min_clusters) {
      throw QuarantineError(
          "Analyzer::analyze: only " + std::to_string(healthy_rows.size()) +
          " rows survived quarantine but " +
          std::to_string(config_.min_clusters) + " clusters are required");
    }
  }
  const std::vector<std::size_t>* fit_rows = degraded ? &healthy_rows : nullptr;

  AnalysisResult result;
  result.stage_counters = previous != nullptr ? previous->stage_counters
                                              : StageCounters{};
  StageFingerprints fp = upstream_fingerprints(raw, db.catalog(), config_,
                                               health_fingerprint(health));
  const auto reusable = [&](std::uint64_t StageFingerprints::*stage,
                            std::uint64_t want) {
    // Poisoned results carry zero fingerprints and never match (see
    // stages::absorb_rows); a computed fingerprint is never zero in practice.
    if (previous == nullptr) return false;
    const std::uint64_t prev_fp = previous->fingerprints.*stage;
    return prev_fp != 0 && prev_fp == want;
  };

  // Intermediate matrices, materialised only when a downstream stage has to
  // recompute. Re-deriving them from the reused fitted transforms is
  // bit-identical to the original fit (select_columns copies values and
  // Standardizer::fit_transform is fit() followed by the same transform()).
  linalg::Matrix refined;
  linalg::Matrix standardized;
  const auto need_refined = [&]() {
    if (refined.empty()) refined = raw.select_columns(result.kept_columns);
  };
  const auto need_standardized = [&]() {
    if (standardized.empty()) {
      need_refined();
      standardized = result.standardizer.transform(refined);
    }
  };

  // --- Refinement (§4.2): constants, then correlation duplicates ---
  if (reusable(&StageFingerprints::refine, fp.refine)) {
    result.kept_columns = previous->kept_columns;
    result.constant_columns = previous->constant_columns;
    result.refinement = previous->refinement;
  } else {
    stages::RefineOutput ro = stages::refine(raw, config_, fit_rows);
    result.kept_columns = std::move(ro.kept_columns);
    result.constant_columns = std::move(ro.constant_columns);
    result.refinement = std::move(ro.refinement);
    refined = std::move(ro.refined);
    ++result.stage_counters.refine;
  }

  // --- Standardisation (§4.3) ---
  if (reusable(&StageFingerprints::standardize, fp.standardize)) {
    result.standardizer = previous->standardizer;
  } else {
    need_refined();
    stages::StandardizeOutput so = stages::standardize(refined, fit_rows);
    result.standardizer = std::move(so.standardizer);
    standardized = std::move(so.standardized);
    ++result.stage_counters.standardize;
  }

  // --- PCA + labelling (§4.3) ---
  if (reusable(&StageFingerprints::pca, fp.pca)) {
    result.pca = previous->pca;
    result.num_components = previous->num_components;
    result.interpretations = previous->interpretations;
  } else {
    need_standardized();
    stages::PcaOutput po = stages::fit_pca(standardized, result.kept_columns,
                                           db.catalog(), config_, pool, fit_rows);
    result.pca = std::move(po.pca);
    result.num_components = po.num_components;
    result.interpretations = std::move(po.interpretations);
    ++result.stage_counters.pca;
  }

  // --- Whitened clustering space (§4.4) ---
  if (reusable(&StageFingerprints::whiten, fp.whiten)) {
    result.whitener = previous->whitener;
    result.whitened = previous->whitened;
    result.cluster_space = previous->cluster_space;
  } else {
    need_standardized();
    stages::WhitenOutput wo = stages::whiten(result.pca, result.num_components,
                                             standardized, config_, fit_rows);
    result.whitener = std::move(wo.whitener);
    result.whitened = wo.whitened;
    result.cluster_space = std::move(wo.cluster_space);
    ++result.stage_counters.whiten;
  }

  // Warm-start seed (kRefit): the previous centroids, lifted back to raw
  // metric space and pushed through the freshly fitted stages. Columns the
  // previous fit dropped are filled from the new population's column means.
  linalg::Matrix warm;
  if (warm_start && previous != nullptr && !previous->clustering.centroids.empty()) {
    warm = stages::project_rows(
        result, stages::centroids_to_raw(*previous, linalg::column_means(raw)));
  }
  fp.cluster = cluster_fingerprint(fp.whiten, config_, fit_weights, warm);
  fp.representatives =
      fingerprint_doubles(fit_weights, util::hash_mix(fp.cluster, 0x52455052u));

  // --- Cluster-count sweep + kept clustering (Fig. 9, §4.4) ---
  if (reusable(&StageFingerprints::cluster, fp.cluster)) {
    result.quality_curve = previous->quality_curve;
    result.chosen_k = previous->chosen_k;
    result.clustering = previous->clustering;
  } else {
    stages::ClusterOutput co =
        stages::cluster(result.cluster_space, fit_weights, config_, pool, warm);
    result.quality_curve = std::move(co.quality_curve);
    result.chosen_k = co.chosen_k;
    result.clustering = std::move(co.clustering);
    ++result.stage_counters.cluster;
  }

  // --- Representatives & weights (§4.4–§4.5) ---
  double healthy_weight = 0.0;
  for (const double w : fit_weights) healthy_weight += w;
  if (degraded && healthy_weight <= 0.0) {
    throw QuarantineError(
        "Analyzer::analyze: quarantine removed all observation-weight mass");
  }
  ensure(healthy_weight > 0.0, "Analyzer::analyze: zero total observation weight");
  if (reusable(&StageFingerprints::representatives, fp.representatives)) {
    result.representatives = previous->representatives;
    result.cluster_weights = previous->cluster_weights;
  } else {
    // Degraded fits pick representatives with positive (healthy) weight only
    // — an imputed below-quorum row must never stand for a cluster.
    stages::RepresentativesOutput rep =
        stages::representatives(result.clustering, result.cluster_space,
                                result.chosen_k, fit_weights,
                                /*require_positive_weight=*/degraded);
    result.representatives = std::move(rep.representatives);
    result.cluster_weights = std::move(rep.cluster_weights);
    ++result.stage_counters.representatives;
  }

  if (health != nullptr) {
    result.quarantine.imputed_cells = health->imputed_cells;
    double total_weight = 0.0;
    for (const double w : weights) total_weight += w;
    result.quarantine.total_weight = total_weight;
    if (degraded) {
      for (std::size_t i = 0; i < db.num_rows(); ++i) {
        if (!health->quarantined[i]) continue;
        result.quarantine.quarantined_rows.push_back(i);
        result.quarantine.quarantined_weight += weights[i];
      }
    }
  }

  result.fingerprints = fp;
  return result;
}

AnalysisResult Analyzer::recluster(const AnalysisResult& base,
                                   const std::vector<double>& new_weights,
                                   util::ThreadPool* pool) const {
  ensure(new_weights.size() == base.cluster_space.rows(),
         "Analyzer::recluster: weight count must match scenario count");
  double total = 0.0;
  for (const double w : new_weights) {
    ensure(w >= 0.0, "Analyzer::recluster: weights must be non-negative");
    total += w;
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

  // The replayed stages answer to a different question (recluster semantics:
  // weights feed representative selection) — never splice them into a fit.
  result.fingerprints.cluster = 0;
  result.fingerprints.representatives = 0;
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
  ensure(health == nullptr || health->quarantined.empty() ||
             health->quarantined.size() == db.num_rows(),
         "Analyzer::refit_incremental: health mask must match the row count");
  const bool degraded = health != nullptr && health->any_quarantined();
  std::vector<std::size_t> healthy_rows;
  std::vector<double> fit_weights = weights;
  if (degraded) {
    healthy_rows.reserve(db.num_rows());
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      if (health->quarantined[i]) {
        fit_weights[i] = 0.0;
      } else {
        healthy_rows.push_back(i);
      }
    }
    if (healthy_rows.size() < config_.min_clusters) {
      throw QuarantineError(
          "Analyzer::refit_incremental: only " +
          std::to_string(healthy_rows.size()) +
          " rows survived quarantine but " +
          std::to_string(config_.min_clusters) + " clusters are required");
    }
  }
  const std::vector<std::size_t>* fit_rows = degraded ? &healthy_rows : nullptr;

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
                                           standardized, config_, fit_rows);
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
      stages::cluster(result.cluster_space, fit_weights, replay, pool, warm);
  result.quality_curve = previous.quality_curve;
  result.chosen_k = co.chosen_k;
  result.clustering = std::move(co.clustering);
  ++result.stage_counters.cluster;

  double healthy_weight = 0.0;
  for (const double w : fit_weights) healthy_weight += w;
  if (degraded && healthy_weight <= 0.0) {
    throw QuarantineError(
        "Analyzer::refit_incremental: quarantine removed all weight mass");
  }
  stages::RepresentativesOutput rep =
      stages::representatives(result.clustering, result.cluster_space,
                              result.chosen_k, fit_weights,
                              /*require_positive_weight=*/degraded);
  result.representatives = std::move(rep.representatives);
  result.cluster_weights = std::move(rep.cluster_weights);
  ++result.stage_counters.representatives;

  if (health != nullptr) {
    result.quarantine.imputed_cells = health->imputed_cells;
    double total_weight = 0.0;
    for (const double w : weights) total_weight += w;
    result.quarantine.total_weight = total_weight;
    if (degraded) {
      for (std::size_t i = 0; i < db.num_rows(); ++i) {
        if (!health->quarantined[i]) continue;
        result.quarantine.quarantined_rows.push_back(i);
        result.quarantine.quarantined_weight += weights[i];
      }
    }
  }

  // The spliced basis equals a cold fit only up to FP rounding — no future
  // analysis may splice these outputs in by fingerprint.
  result.fingerprints = StageFingerprints{};
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
