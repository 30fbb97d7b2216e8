// Stage-graph bookkeeping for the incremental analysis data plane.
//
// The Analyzer is a chain of pure stages
//
//   raw ─▶ refine ─▶ standardize ─▶ pca ─▶ whiten ─▶ cluster ─▶ representatives
//
// and each stage's *input fingerprint* is the hash-chain of its upstream
// input fingerprint mixed with the bits of the config knobs that stage reads.
// Stages are deterministic, so equal input fingerprints imply bit-equal
// outputs — a re-analysis can splice in the previous result's outputs for
// every stage whose input fingerprint is unchanged and recompute only the
// suffix that actually changed (e.g. a Ward-vs-KMeans flip replays only the
// cluster + representative stages). Results that were extended *in place* by
// the incremental ingest path poison their fingerprints (see
// stages::absorb_rows), because their stored stage outputs no longer equal
// what a from-scratch fit over the grown population would produce.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/hash.hpp"

namespace flare::core {

/// Input fingerprint per analysis stage (0 = never computed). Equality of a
/// stage's field across two analyses proves the stage would recompute the
/// same output bit for bit.
struct StageFingerprints {
  std::uint64_t raw = 0;              ///< metric matrix + catalog names
  std::uint64_t refine = 0;           ///< raw ⊕ refinement knobs
  std::uint64_t standardize = 0;      ///< refine ⊕ (no knobs)
  std::uint64_t pca = 0;              ///< standardize ⊕ variance/labeler knobs
  std::uint64_t whiten = 0;           ///< pca ⊕ whiten knob
  std::uint64_t cluster = 0;          ///< whiten ⊕ clustering knobs (+ weights)
  std::uint64_t representatives = 0;  ///< cluster ⊕ observation weights

  [[nodiscard]] bool operator==(const StageFingerprints&) const = default;
};

/// How many times each stage has been (re)computed over the lifetime of an
/// analysis lineage — fit() sets every counter to 1, incremental operations
/// (ingest, scheduler changes, re-analyses) bump only the stages they
/// actually re-ran. Tests assert cheap paths by diffing these.
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
  [[nodiscard]] bool operator==(const StageCounters&) const = default;
};

/// Mixes a double's bit pattern into a hash chain.
[[nodiscard]] inline std::uint64_t hash_mix(std::uint64_t h, double value) {
  return util::hash_mix(h, std::bit_cast<std::uint64_t>(value));
}

/// Content hash of a dense matrix (dims + every element's bit pattern).
[[nodiscard]] std::uint64_t fingerprint_matrix(const linalg::Matrix& m,
                                               std::uint64_t seed = util::kFnvOffsetBasis);

/// Content hash of a double vector.
[[nodiscard]] std::uint64_t fingerprint_doubles(const std::vector<double>& v,
                                                std::uint64_t seed = util::kFnvOffsetBasis);

}  // namespace flare::core
