// Redundant-metric elimination (FLARE §4.2 "Refinement"): drop metrics that
// are near-duplicates of an already kept metric (|Pearson r| above a
// threshold), e.g. memory bandwidth == LLC misses × line size.
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace flare::ml {

struct CorrelationDrop {
  std::size_t dropped_column = 0;  ///< column index in the original matrix
  std::size_t kept_column = 0;     ///< the column it duplicates
  double correlation = 0.0;        ///< the offending |r| (signed value stored)
};

struct CorrelationFilterResult {
  std::vector<std::size_t> kept_columns;  ///< surviving columns, original order
  std::vector<CorrelationDrop> drops;     ///< audit trail of eliminations
};

class CorrelationFilter {
 public:
  /// `threshold` is the |r| at or above which a column counts as a duplicate.
  explicit CorrelationFilter(double threshold = 0.95);

  /// Greedy scan in column order: a column is kept unless it correlates at or
  /// above the threshold with a previously kept column. Deterministic, and
  /// keeps the earliest (schema-order) member of each duplicate family, which
  /// matches how an engineer would curate the metric list.
  [[nodiscard]] CorrelationFilterResult fit(const linalg::Matrix& data) const;

  /// Same greedy scan over a precomputed correlation matrix (d × d,
  /// symmetric, unit diagonal) — the out-of-core path derives it from one
  /// streaming comoment pass instead of materialising columns. Matches
  /// fit()'s keep/drop decisions whenever corr(i, j) equals the pairwise
  /// Pearson r of the underlying data.
  [[nodiscard]] CorrelationFilterResult fit_from_correlation(
      const linalg::Matrix& corr) const;

  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  double threshold_;
};

}  // namespace flare::ml
