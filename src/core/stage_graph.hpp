// Stage bookkeeping for the Analyzer.
//
// The Analyzer is one straight chain of pure stages
//
//   raw ─▶ refine ─▶ standardize ─▶ pca ─▶ whiten ─▶ cluster ─▶ representatives
//
// and every analyze() runs all six. The incremental ingest path and the
// scheduler-change replay run a suffix of the chain over a fitted result;
// StageCounters records which stages each operation actually re-ran.
#pragma once

#include <cstddef>

namespace flare::core {

/// How many times each stage has been (re)computed over the lifetime of an
/// analysis lineage — fit() sets every counter to 1, incremental operations
/// (ingest, scheduler changes, refits) bump only the stages they actually
/// re-ran. Tests assert cheap paths by diffing these.
struct StageCounters {
  std::size_t refine = 0;
  std::size_t standardize = 0;
  std::size_t pca = 0;
  std::size_t whiten = 0;
  std::size_t cluster = 0;
  std::size_t representatives = 0;
  /// Incremental eigenbasis maintenance: ml::TrackedPca::fold folds into the
  /// tracked basis (telemetry — an O(batch·d²) fold, orders of magnitude
  /// cheaper than the pca counter's cold covariance fit) plus basis splices
  /// by Analyzer::refit_incremental. Deliberately excluded from
  /// upstream_total()/total() so cheap-path assertions over the cold-stage
  /// counters are unaffected by how often the shadow basis advanced.
  std::size_t pca_incremental = 0;

  /// Recomputations of the expensive fitted stages (everything upstream of
  /// the representative extraction).
  [[nodiscard]] std::size_t upstream_total() const {
    return refine + standardize + pca + whiten + cluster;
  }
  [[nodiscard]] std::size_t total() const {
    return upstream_total() + representatives;
  }
  /// Folds a later operation's recomputes into this lineage's totals.
  StageCounters& operator+=(const StageCounters& later) {
    refine += later.refine;
    standardize += later.standardize;
    pca += later.pca;
    whiten += later.whiten;
    cluster += later.cluster;
    representatives += later.representatives;
    pca_incremental += later.pca_incremental;
    return *this;
  }
  [[nodiscard]] bool operator==(const StageCounters&) const = default;
};

}  // namespace flare::core
