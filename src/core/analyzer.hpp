// FLARE steps 2+3 (§4.3–§4.4): the Analyzer.
//
// Pipeline: refine raw metrics (drop constants + correlation duplicates) →
// standardise → PCA (keep components to a variance target) → label PCs →
// whiten PC scores → cluster (K-means by default, Ward as the paper's noted
// alternative) → extract the representative scenario per cluster (nearest to
// the centroid) and the cluster observation weights.
//
// analyze() runs the six stages in one straight line. Each stage is a pure
// function in the `stages` namespace below, so the incremental ingest path and
// the scheduler-change replay can run a suffix of the chain over a fitted
// result; StageCounters (core/stage_graph.hpp) records what each one re-ran.
#pragma once

#include <optional>

#include "core/pc_labeler.hpp"
#include "core/stage_graph.hpp"
#include "metrics/metric_database.hpp"
#include "ml/agglomerative.hpp"
#include "ml/correlation_filter.hpp"
#include "ml/kmeans.hpp"
#include "ml/minibatch_kmeans.hpp"
#include "ml/pca.hpp"
#include "ml/standardizer.hpp"
#include "ml/whitener.hpp"

namespace flare::core {

enum class ClusterAlgorithm : unsigned char {
  kKMeans,            ///< paper default
  kWardAgglomerative, ///< paper's noted alternative (§4.4)
};

/// Which K-means engine the cluster stage runs (DESIGN.md §12).
enum class KMeansMode : unsigned char {
  kExact,      ///< Lloyd over all rows, exact nearest-centroid scan (default)
  kMiniBatch,  ///< coreset solve + full-data refinement (sublinear sweep)
  kAuto,       ///< exact below minibatch_threshold rows, minibatch above
};

struct AnalyzerConfig {
  // Refinement.
  bool use_correlation_filter = true;   ///< ablation: skip refinement
  double correlation_threshold = 0.98;

  // Dimensionality reduction.
  double variance_target = 0.95;        ///< paper: 95 % -> 18 PCs
  bool whiten = true;                   ///< ablation: cluster raw PC scores

  // Clustering.
  ClusterAlgorithm algorithm = ClusterAlgorithm::kKMeans;
  /// Weight scenarios by observation time inside K-means itself (off in the
  /// paper, which weights only at estimation time; exposed for the ablation
  /// study). Ignored by the Ward alternative.
  bool weight_clustering_by_observation = false;
  /// Force the cluster count (paper: 18). nullopt -> choose automatically
  /// from the SSE/silhouette sweep.
  std::optional<std::size_t> fixed_clusters = 18;
  std::size_t min_clusters = 2;
  std::size_t max_clusters = 40;
  /// Run the full Fig. 9 SSE/silhouette sweep. Required when
  /// fixed_clusters is nullopt; optional (but informative) otherwise.
  bool compute_quality_curve = true;
  ml::KMeansParams kmeans;              ///< k is overwritten per sweep point

  // Million-scenario scale (DESIGN.md §12). The defaults keep the paper-scale
  // path bit-identical: exact solver, exact silhouette with the shared n×n
  // distance cache. Only populations beyond the thresholds change behavior.
  KMeansMode kmeans_mode = KMeansMode::kExact;
  /// kAuto switches to the coreset path above this row count.
  std::size_t minibatch_threshold = 8192;
  ml::CoresetParams coreset;            ///< coreset size/seed for minibatch
  /// Full-data Lloyd polish iterations after the coreset solve.
  int minibatch_refine_iterations = 2;
  /// Above this row count the k-sweep stops materialising the n×n pairwise
  /// distance cache (O(n²) memory!) and scores a sampled silhouette instead.
  std::size_t silhouette_exact_threshold = 4096;
  /// Rows in the sampled silhouette estimate.
  std::size_t silhouette_sample = 1024;

  /// Worker threads for analyze() when no shared pool is passed:
  /// 1 = run inline (default), 0 = one per hardware thread. Results are
  /// bit-identical for every value — parallel loops write index-addressed
  /// slots and reductions happen serially in index order.
  std::size_t threads = 1;

  PcLabelerConfig labeler;
};

/// One point of the Fig. 9 cluster-count sweep.
struct ClusterQualityPoint {
  std::size_t k = 0;
  double sse = 0.0;
  double silhouette = 0.0;
  /// True when `silhouette` is the sampled estimate (population exceeded
  /// AnalyzerConfig::silhouette_exact_threshold), not the exact O(n²) score.
  bool silhouette_estimated = false;
};

/// Measurement-health input to a degraded fit (built by FlarePipeline from
/// the profiler's RowHealth records). Quarantined rows stay in the population
/// (row indices must keep lining up with the scenario set) but contribute
/// nothing to any fitted moment or cluster weight.
struct AnalysisHealth {
  /// Row-indexed: true = below the sample quorum, fit around it.
  std::vector<bool> quarantined;
  /// Cells that were median-imputed before the fit (telemetry).
  std::size_t imputed_cells = 0;

  [[nodiscard]] bool any_quarantined() const {
    for (const bool q : quarantined) {
      if (q) return true;
    }
    return false;
  }
};

/// Where the observation-weight mass of quarantined rows went: nowhere. The
/// ledger keeps the books so nothing is silently lost — the quarantined mass
/// plus the mass behind the cluster weights always equals the population
/// total (property-tested under ctest -L faults).
struct QuarantineLedger {
  std::vector<std::size_t> quarantined_rows;  ///< population row indices
  double quarantined_weight = 0.0;            ///< Σ true weights of those rows
  double total_weight = 0.0;                  ///< Σ true weights, whole population
  std::size_t imputed_cells = 0;              ///< median-filled cells in the fit

  [[nodiscard]] double quarantined_fraction() const {
    return total_weight > 0.0 ? quarantined_weight / total_weight : 0.0;
  }
};

struct AnalysisResult {
  // Step: refinement.
  std::vector<std::size_t> kept_columns;     ///< surviving raw-metric columns
  std::vector<std::size_t> constant_columns; ///< dropped for zero variance
  ml::CorrelationFilterResult refinement;    ///< audit trail of duplicate drops

  // Step: PCA.
  ml::Standardizer standardizer;
  ml::Pca pca;
  std::size_t num_components = 0;            ///< components for variance target
  std::vector<PcInterpretation> interpretations;

  // Step: clustering.
  ml::Whitener whitener;
  bool whitened = true;                      ///< was whitening applied? (ablation)
  linalg::Matrix cluster_space;              ///< n × num_components (whitened)
  std::vector<ClusterQualityPoint> quality_curve;
  std::size_t chosen_k = 0;
  ml::KMeansResult clustering;               ///< Ward results adapted into this

  // Step: representatives.
  std::vector<std::size_t> representatives;  ///< scenario row index per cluster
  std::vector<double> cluster_weights;       ///< observation-weight share, Σ = 1

  /// Degraded-fit bookkeeping (empty for clean fits): which rows were
  /// quarantined out of the moments/weights and how much mass they carried.
  QuarantineLedger quarantine;

  /// How often each stage has recomputed across the lifetime of this
  /// analysis lineage (core/stage_graph.hpp).
  StageCounters stage_counters;

  /// Cluster members ordered by distance from the centroid (nearest first) —
  /// the per-job estimator walks this list (§5.3).
  [[nodiscard]] std::vector<std::size_t> members_by_distance(std::size_t cluster) const;
};

class Analyzer {
 public:
  explicit Analyzer(AnalyzerConfig config = {});

  /// Runs the full analysis over a profiled metric database. Builds a
  /// private pool when config().threads != 1 (see the pool overload).
  [[nodiscard]] AnalysisResult analyze(const metrics::MetricDatabase& db) const;

  /// Same, on a caller-owned pool (FlarePipeline shares one pool across
  /// profiling and analysis). nullptr = run inline. The pool accelerates the
  /// PCA covariance, the pairwise-distance matrix shared by the k-sweep, the
  /// per-k sweep points, and K-means restarts; outputs are bit-identical to
  /// the serial path for every thread count. Every stage runs once, so each
  /// of the six stage counters of the result reads 1.
  ///
  /// `health` (nullable) marks quarantined rows and imputation telemetry: the
  /// standardizer/PCA/whitener moments are fitted on the healthy rows only,
  /// quarantined rows keep their row slot (projected + assigned, zero weight)
  /// and representatives skip them; the books land in
  /// AnalysisResult::quarantine.
  ///
  /// `warm_start` (nullable; the drift monitor's kRefit action) seeds restart
  /// 0 of the final K-means at the chosen k from its centroids, lifted to raw
  /// space through its own fitted transforms (stages::centroids_to_raw) and
  /// projected into the new cluster space. Nothing else of it is read.
  [[nodiscard]] AnalysisResult analyze(const metrics::MetricDatabase& db,
                                       util::ThreadPool* pool,
                                       const AnalysisHealth* health = nullptr,
                                       const AnalysisResult* warm_start =
                                           nullptr) const;

  /// Re-clusters an existing analysis under new scenario weights without
  /// re-profiling — the §5.6 scheduler-change workflow ("derive new
  /// representative scenarios starting from Step 3"). Implemented as a
  /// stage-level replay: the metric space, standardisation and PCA of `base`
  /// are reused verbatim; only the cluster + representative stages re-run
  /// over the re-weighted population (stage counters record exactly that).
  /// `pool` shares worker threads (nullptr = run inline). A non-finite
  /// weight throws FaultError naming its row.
  [[nodiscard]] AnalysisResult recluster(const AnalysisResult& base,
                                         const std::vector<double>& new_weights,
                                         util::ThreadPool* pool) const;

  /// Incremental-PCA refit (the ingest path's --pca-update incremental/auto
  /// kRefit action): splices `updated_pca` — an eigenbasis tracked by
  /// ml::TrackedPca over the frozen refinement + standardisation frame of
  /// `previous` and materialised — in place of a cold PCA fit, then replays
  /// only the downstream whiten/cluster/representative stages over the full
  /// population, warm-starting K-means at the previous chosen k from the
  /// previous centroids (Fig. 9 sweep skipped, quality curve carried over).
  /// The refine/standardize/pca counters stay put; pca_incremental records
  /// the splice and whiten/cluster/representatives record the replay.
  [[nodiscard]] AnalysisResult refit_incremental(const metrics::MetricDatabase& db,
                                                 const ml::Pca& updated_pca,
                                                 const AnalysisResult& previous,
                                                 util::ThreadPool* pool,
                                                 const AnalysisHealth* health =
                                                     nullptr) const;

  [[nodiscard]] const AnalyzerConfig& config() const { return config_; }

  /// The Fig. 9 k-selection rule: the smallest k whose silhouette is within
  /// `tolerance` of the sweep maximum (diminishing-returns knee).
  [[nodiscard]] static std::size_t suggest_k(
      const std::vector<ClusterQualityPoint>& curve, double tolerance = 0.05);

 private:
  AnalyzerConfig config_;
};

/// The individual analysis stages. Each is a pure function of its declared
/// inputs — the Analyzer composes them, and tests exercise them in
/// isolation.
namespace stages {

/// Stage 1 — refinement (§4.2): drop numerically constant columns, then
/// correlation duplicates. `kept_columns` indexes the original catalog.
/// With `fit_rows` (degraded fits) the column selection is computed from
/// those rows only — quarantined rows are imputed to per-metric medians, and
/// those synthetic values would both hide truly-constant columns and
/// decorrelate duplicate columns, inflating the kept set relative to a clean
/// fit. Every row is still projected onto the selected columns.
struct RefineOutput {
  std::vector<std::size_t> kept_columns;
  std::vector<std::size_t> constant_columns;
  ml::CorrelationFilterResult refinement;
  linalg::Matrix refined;  ///< raw columns `kept_columns`, in order
};
[[nodiscard]] RefineOutput refine(
    const linalg::Matrix& raw, const AnalyzerConfig& config,
    const std::vector<std::size_t>* fit_rows = nullptr);

/// Stage 2 — standardisation (§4.3): zero mean / unit variance. With
/// `fit_rows` (degraded fits) the moments come from those rows only while
/// every row is still transformed — quarantined rows must not bend the scale
/// they are measured against.
struct StandardizeOutput {
  ml::Standardizer standardizer;
  linalg::Matrix standardized;
};
[[nodiscard]] StandardizeOutput standardize(
    const linalg::Matrix& refined,
    const std::vector<std::size_t>* fit_rows = nullptr);

/// Stage 3 — PCA + component labelling (§4.3, Fig. 8).
struct PcaOutput {
  ml::Pca pca;
  std::size_t num_components = 0;
  std::vector<PcInterpretation> interpretations;
};
[[nodiscard]] PcaOutput fit_pca(const linalg::Matrix& standardized,
                                const std::vector<std::size_t>& kept_columns,
                                const metrics::MetricCatalog& catalog,
                                const AnalyzerConfig& config,
                                util::ThreadPool* pool,
                                const std::vector<std::size_t>* fit_rows = nullptr);

/// Stage 3′ — basis splice for the incremental-PCA refit: adopts an
/// eigenbasis tracked by ml::TrackedPca in place of a cold fit and
/// re-derives the variance-target component count and the PC labels from
/// its (incrementally merged) spectrum.
[[nodiscard]] PcaOutput splice_pca(const ml::Pca& updated_pca,
                                   const std::vector<std::size_t>& kept_columns,
                                   const metrics::MetricCatalog& catalog,
                                   const AnalyzerConfig& config);

/// Stage 4 — whitened clustering space (§4.4).
struct WhitenOutput {
  ml::Whitener whitener;
  bool whitened = true;
  linalg::Matrix cluster_space;
};
[[nodiscard]] WhitenOutput whiten(const ml::Pca& pca, std::size_t num_components,
                                  const linalg::Matrix& standardized,
                                  const AnalyzerConfig& config,
                                  const std::vector<std::size_t>* fit_rows = nullptr);

/// Stage 5 — cluster-count sweep (Fig. 9) + the kept clustering. `weights`
/// are the observation weights (used only when
/// config.weight_clustering_by_observation). `warm_centroids`, when non-empty
/// with one row per chosen cluster, seeds K-means restart 0 (kRefit path).
struct ClusterOutput {
  std::vector<ClusterQualityPoint> quality_curve;
  std::size_t chosen_k = 0;
  ml::KMeansResult clustering;
};
[[nodiscard]] ClusterOutput cluster(const linalg::Matrix& cluster_space,
                                    const std::vector<double>& weights,
                                    const AnalyzerConfig& config,
                                    util::ThreadPool* pool,
                                    const linalg::Matrix& warm_centroids = {});

/// Stage 6 — representative scenarios + cluster observation weights
/// (§4.4–§4.5). With `require_positive_weight` (the §5.6 scheduler-change
/// replay), each representative walks outward from the centroid past
/// zero-weight members so it is a scenario that actually occurs.
struct RepresentativesOutput {
  std::vector<std::size_t> representatives;
  std::vector<double> cluster_weights;
};
[[nodiscard]] RepresentativesOutput representatives(
    const ml::KMeansResult& clustering, const linalg::Matrix& cluster_space,
    std::size_t k, const std::vector<double>& weights,
    bool require_positive_weight);

/// Projects fresh catalog-ordered raw rows through the fitted
/// refine → standardize → PCA → whiten stages into the fitted cluster space
/// (used by the drift monitor and the incremental ingest path).
[[nodiscard]] linalg::Matrix project_rows(const AnalysisResult& fitted,
                                          const linalg::Matrix& raw);

/// Nearest fitted centroid per projected row (ties to the lowest index).
struct NearestAssignment {
  std::vector<std::size_t> cluster;  ///< winning centroid per row
  std::vector<double> dist_sq;       ///< squared distance to it
};
[[nodiscard]] NearestAssignment assign_to_nearest(
    const ml::KMeansResult& clustering, const linalg::Matrix& points);

/// Absorbs projected fresh rows into a fitted analysis IN PLACE without
/// refitting any upstream stage: rows are assigned to their nearest fitted
/// centroid, the cluster space / assignment / distance cache / sizes grow,
/// and the cluster observation weights are refreshed from
/// `combined_weights` (old rows then new rows). With
/// `refresh_representatives` (the kReweight action) representatives are
/// re-derived as the nearest positive-weight member and the representative
/// stage counter bumps; otherwise (kValid) they stay put and no stage
/// recomputes.
void absorb_rows(AnalysisResult& analysis, const linalg::Matrix& projected,
                 const std::vector<double>& combined_weights,
                 bool refresh_representatives);

/// Maps a fitted clustering's centroids back to full-catalog raw-metric
/// space: whitener/PCA/standardizer inverses recover the fitted refined
/// columns; columns the fit dropped are filled from `fallback_columns`
/// (catalog-width, e.g. the new population's column means). Used to seed the
/// warm-started refit.
[[nodiscard]] linalg::Matrix centroids_to_raw(
    const AnalysisResult& fitted, const std::vector<double>& fallback_columns);

}  // namespace stages

}  // namespace flare::core
