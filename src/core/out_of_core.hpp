// Streaming out-of-core analysis (DESIGN.md §12).
//
// `analyze_out_of_core` runs the full FLARE analysis over a
// metrics::ColumnStore without ever materialising the n × d dense matrix the
// in-RAM Analyzer starts from. Two streaming passes replace it:
//
//   Pass 1 — moments. Every block contributes per-column min/max, the running
//   mean and the d × d comoment matrix (Chan's parallel merge). From those
//   moments alone:
//     · constant columns fall out of the min/max rule (bit-identical
//       decisions to stages::refine — the rule is order-independent);
//     · correlation duplicates fall out of r_ij = C_ij / √(C_ii·C_jj) via
//       CorrelationFilter::fit_from_correlation;
//     · the standardizer is assembled by Standardizer::from_moments;
//     · PCA is an eigensolve of the kept columns' correlation matrix
//       (Pca::fit_from_covariance) — the covariance of standardised data
//       *is* the correlation matrix of the raw data, exactly.
//
//   Pass 2 — scores. Blocks stream again through refine-select → standardise
//   → PCA projection, landing in the n × num_components score matrix: the
//   only O(n) allocation of the whole analysis (n·18 doubles instead of n·d).
//   Whitening, the cluster sweep and representative extraction then run on
//   that compact matrix exactly as the in-RAM stages do.
//
// The result is a fully populated AnalysisResult — representatives, cluster
// weights, quality curve, fitted transforms, with every stage counter at 1.
// Numerically the fit matches the in-RAM path to rounding, but it is not
// bit-identical (moment reassociation).
//
// Not supported here: quarantine/health masking (the degraded-fit path stays
// in-RAM — below-quorum populations are small by construction) and warm
// starts from a previous result.
#pragma once

#include "core/analyzer.hpp"
#include "metrics/column_store.hpp"

namespace flare::core {

struct OutOfCoreOptions {
  /// Advisory cap on the resident working set (the score + cluster-space
  /// matrices). 0 = unchecked. When > 0 and the post-refine projection alone
  /// cannot fit, the analysis throws NumericalError up front instead of
  /// thrashing.
  std::size_t memory_budget_bytes = 0;
};

struct OutOfCoreTelemetry {
  std::size_t passes = 0;           ///< streaming passes actually executed
  std::size_t blocks_streamed = 0;  ///< blocks decoded across those passes
  std::size_t dense_bytes = 0;      ///< what the n × d matrix would have cost
  std::size_t resident_bytes = 0;   ///< peak score/cluster-space residency
};

/// Streams the store through the two-pass analysis described above. `config`
/// is honoured exactly as by Analyzer::analyze — at out-of-core scale the
/// caller almost always wants kmeans_mode = kAuto so the cluster sweep stays
/// sub-quadratic. Throws ParseError on malformed stores and NumericalError
/// when the working set cannot fit the memory budget.
[[nodiscard]] AnalysisResult analyze_out_of_core(
    const metrics::ColumnStore& store, const AnalyzerConfig& config,
    const OutOfCoreOptions& options = {}, util::ThreadPool* pool = nullptr,
    OutOfCoreTelemetry* telemetry = nullptr);

}  // namespace flare::core
