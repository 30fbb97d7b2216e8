#include "core/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/impute.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace flare::core {

std::string_view to_string(DriftVerdict verdict) {
  switch (verdict) {
    case DriftVerdict::kValid: return "valid";
    case DriftVerdict::kReweight: return "reweight";
    case DriftVerdict::kRefit: return "refit";
  }
  return "?";
}

DriftVerdict escalate_for_basis_drift(DriftVerdict verdict, double pca_drift,
                                      const DriftConfig& config) {
  ensure(config.pca_drift_limit >= 0.0,
         "escalate_for_basis_drift: pca_drift_limit must be >= 0");
  ensure(pca_drift >= 0.0, "escalate_for_basis_drift: drift must be >= 0");
  if (pca_drift > config.pca_drift_limit) return DriftVerdict::kRefit;
  return verdict;
}

DriftMonitor::DriftMonitor(const AnalysisResult& analysis, DriftConfig config)
    : analysis_(&analysis), config_(config) {
  ensure(config_.coverage_quantile > 0.0 && config_.coverage_quantile <= 1.0,
         "DriftMonitor: coverage_quantile must be in (0, 1]");
  ensure(config_.refit_distance_ratio > 1.0,
         "DriftMonitor: refit_distance_ratio must exceed 1");
  ensure(config_.refit_coverage_fraction > 0.0 &&
             config_.refit_coverage_fraction <= 1.0,
         "DriftMonitor: refit_coverage_fraction must be in (0, 1]");
  ensure(config_.reweight_threshold > 0.0 && config_.reweight_threshold <= 1.0,
         "DriftMonitor: reweight_threshold must be in (0, 1]");
  ensure(!analysis.clustering.assignment.empty(),
         "DriftMonitor: analysis has no clustering");

  // Per-cluster coverage radius: the chosen quantile of the fitted members'
  // squared distance to their centroid. Also remember the fleet-wide median
  // member distance — the scale the refit criterion compares against.
  coverage_radius_sq_.resize(analysis.chosen_k, 0.0);
  std::vector<double> all_dist_sq;
  for (std::size_t c = 0; c < analysis.chosen_k; ++c) {
    std::vector<double> dist_sq;
    for (const std::size_t m : analysis.clustering.members_of(c)) {
      dist_sq.push_back(linalg::squared_distance(
          analysis.cluster_space.row(m), analysis.clustering.centroids.row(c)));
      all_dist_sq.push_back(dist_sq.back());
    }
    coverage_radius_sq_[c] =
        dist_sq.empty() ? 0.0 : stats::percentile(dist_sq, config_.coverage_quantile);
  }
  fitted_median_dist_sq_ = stats::median(all_dist_sq);
}

DriftReport DriftMonitor::inspect(const metrics::MetricDatabase& fresh) const {
  ensure(fresh.num_rows() > 0, "DriftMonitor::inspect: empty batch");
  const AnalysisResult& a = *analysis_;

  // Project the fresh rows through the fitted pipeline stages — the same
  // stages::project_rows the incremental ingest path uses.
  const linalg::Matrix raw = fresh.to_matrix();
  ensure(raw.cols() > *std::max_element(a.kept_columns.begin(),
                                        a.kept_columns.end()),
         "DriftMonitor::inspect: batch schema is narrower than the fitted one");
  // A non-finite cell would land in some cluster at a NaN or infinite
  // distance and skew coverage and the distance scale without a trace.
  // Ingest imputes before it inspects.
  ml::require_finite(raw, "DriftMonitor::inspect");
  const linalg::Matrix scores = stages::project_rows(a, raw);

  DriftReport report;
  report.coverage_radius_sq = coverage_radius_sq_;
  report.fresh_cluster_weights.assign(a.chosen_k, 0.0);

  const std::vector<double> weights = fresh.weights();
  double covered_weight = 0.0;
  double uncovered_weight = 0.0;
  const stages::NearestAssignment nearest =
      stages::assign_to_nearest(a.clustering, scores);
  std::vector<double> fresh_dist_sq;
  fresh_dist_sq.reserve(scores.rows());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    const double best = nearest.dist_sq[r];
    const std::size_t best_c = nearest.cluster[r];
    fresh_dist_sq.push_back(best);
    // Weight accounting uses the nearest cluster either way; coverage only
    // decides whether the scenario also counts as unseen behaviour.
    report.fresh_cluster_weights[best_c] += weights[r];
    if (best <= coverage_radius_sq_[best_c]) {
      covered_weight += weights[r];
    } else {
      report.uncovered_rows.push_back(r);
      uncovered_weight += weights[r];
    }
  }
  report.distance_ratio =
      fitted_median_dist_sq_ > 0.0
          ? std::sqrt(stats::median(fresh_dist_sq) / fitted_median_dist_sq_)
          : std::numeric_limits<double>::infinity();
  const double total_weight = covered_weight + uncovered_weight;
  ensure(total_weight > 0.0, "DriftMonitor::inspect: zero total batch weight");
  report.out_of_coverage_fraction = uncovered_weight / total_weight;

  // Weight shift (total-variation distance) over all fresh mass.
  double tv = 0.0;
  for (std::size_t c = 0; c < a.chosen_k; ++c) {
    report.fresh_cluster_weights[c] /= total_weight;
    tv += std::abs(report.fresh_cluster_weights[c] - a.cluster_weights[c]);
  }
  report.weight_shift = tv / 2.0;

  if (report.distance_ratio > config_.refit_distance_ratio ||
      report.out_of_coverage_fraction > config_.refit_coverage_fraction) {
    report.verdict = DriftVerdict::kRefit;
  } else if (report.weight_shift > config_.reweight_threshold) {
    report.verdict = DriftVerdict::kReweight;
  } else {
    report.verdict = DriftVerdict::kValid;
  }
  return report;
}

}  // namespace flare::core
