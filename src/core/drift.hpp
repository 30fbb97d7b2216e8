// Representative-validity monitoring.
//
// The paper is explicit that representatives age: features that change the
// machine shape invalidate them outright (§2, §5.5) and scheduler changes
// shift their weights (§5.6). In production the operator needs a cheap,
// continuous answer to "are last quarter's representatives still valid?".
// This monitor compares a *fresh* batch of profiled scenarios against a
// fitted analysis and classifies the drift:
//
//   kValid    — the new behaviours fall inside the fitted groups with
//               similar frequencies; keep using the representatives.
//   kReweight — same behaviours, different frequencies (a scheduler-like
//               change); re-derive weights/representatives from step 3
//               (FlarePipeline::apply_scheduler_change / Analyzer::recluster).
//   kRefit    — the new batch contains behaviours the fitted groups do not
//               cover (shape-change-like drift); re-profile and re-fit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "metrics/metric_database.hpp"

namespace flare::core {

enum class DriftVerdict : unsigned char { kValid, kReweight, kRefit };

[[nodiscard]] std::string_view to_string(DriftVerdict verdict);

struct DriftConfig {
  /// A new scenario is "out of coverage" when its distance to the nearest
  /// centroid exceeds this quantile of the fitted member distances. (A fresh
  /// batch always contains genuinely new mixes, so some out-of-coverage mass
  /// is normal — the verdict keys off the *scale* of the distances instead.)
  double coverage_quantile = 0.95;
  /// kRefit when the fresh batch's median nearest-centroid distance exceeds
  /// this multiple of the fitted members' median — the behaviours moved, not
  /// just the mixes.
  double refit_distance_ratio = 2.0;
  /// ... or when out-of-coverage mass is overwhelming regardless of scale.
  double refit_coverage_fraction = 0.6;
  /// kReweight when the cluster-weight total-variation distance exceeds this.
  /// Small fresh batches estimate weights noisily (TV ≈ 0.4–0.7 between two
  /// honest draws of a few hundred scenarios), hence the high default;
  /// calibrate downward for larger batches.
  double reweight_threshold = 0.75;
  /// Maximum tolerated rotation of the incrementally tracked PCA eigenbasis
  /// away from the basis the fitted analysis projects with, measured as
  /// sin(θ_max) over the kept components (ml::TrackedPca::drift, see
  /// DESIGN.md §9). Beyond it the kAuto PCA-update policy escalates the
  /// batch action to a refit: rows absorbed so far were projected in a basis
  /// the population has rotated away from.
  double pca_drift_limit = 0.05;
  /// Quarantine escalation: when a batch's quarantined observation-weight
  /// fraction exceeds this, ingest forces a refit — absorbing that much
  /// zero-weight mass into the fitted clusters would distort their weights
  /// against the healthy population. RefitPolicy::kNever still vetoes.
  double quarantine_refit_fraction = 0.5;
};

struct DriftReport {
  DriftVerdict verdict = DriftVerdict::kValid;
  /// Fraction of new scenarios beyond the fitted coverage radius.
  double out_of_coverage_fraction = 0.0;
  /// Median fresh nearest-centroid distance / median fitted member distance.
  double distance_ratio = 0.0;
  /// Total-variation distance between fitted and fresh cluster weights.
  double weight_shift = 0.0;
  /// Fresh batch's weight share per fitted cluster (covered scenarios only).
  std::vector<double> fresh_cluster_weights;
  /// Row indices (into the fresh batch) of the uncovered scenarios.
  std::vector<std::size_t> uncovered_rows;
  /// The per-cluster coverage radii used (squared distances).
  std::vector<double> coverage_radius_sq;
};

/// Escalates a drift verdict to kRefit when the tracked eigenbasis has
/// rotated past `config.pca_drift_limit` — the kAuto PCA-update policy's
/// second trigger, independent of the distance/coverage criteria (a slow,
/// steady rotation never trips those but still degrades every projection
/// made in the stale basis). Verdicts already at kRefit pass through.
[[nodiscard]] DriftVerdict escalate_for_basis_drift(DriftVerdict verdict,
                                                    double pca_drift,
                                                    const DriftConfig& config);

class DriftMonitor {
 public:
  /// `analysis` must come from the same schema the fresh batches will use.
  explicit DriftMonitor(const AnalysisResult& analysis, DriftConfig config = {});
  DriftMonitor(AnalysisResult&&, DriftConfig = {}) = delete;  // dangling guard

  /// Projects the fresh batch through the fitted refinement/PCA/whitening and
  /// classifies the drift. The batch's observation weights drive the
  /// weight-shift computation.
  [[nodiscard]] DriftReport inspect(const metrics::MetricDatabase& fresh) const;

 private:
  const AnalysisResult* analysis_;  ///< non-owning
  DriftConfig config_;
  std::vector<double> coverage_radius_sq_;  ///< per cluster
  double fitted_median_dist_sq_ = 0.0;      ///< fleet-wide distance scale
};

}  // namespace flare::core
