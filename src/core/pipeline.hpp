// FlarePipeline — the end-to-end facade and the library's primary entry
// point. One object owns the four steps of §4:
//
//   FlarePipeline flare(config);
//   flare.fit(scenario_set);                       // profile + analyze
//   auto est = flare.evaluate(feature_dvfs_cap()); // replay representatives
//
// plus the §5.5 heterogeneous-shape and §5.6 scheduler-change workflows.
#pragma once

#include <memory>

#include "core/analyzer.hpp"
#include "core/drift.hpp"
#include "core/drift_response.hpp"
#include "core/estimator.hpp"
#include "core/impact.hpp"
#include "core/profiler.hpp"
#include "core/replayer.hpp"
#include "dcsim/interference_model.hpp"
#include "ml/tracked_pca.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {

/// Which raw-metric schema the Profiler collects.
enum class MetricSchema : unsigned char {
  kStandard,            ///< the Fig. 6 two-level schema (paper default)
  kWithJobMix,          ///< + per-job mix columns (§5.3 per-job accuracy opt-in)
  kTemporal,            ///< + per-metric temporal stddev columns (§4.1 note)
  kWithJobMixTemporal,  ///< both enrichments
};

/// How FlarePipeline::ingest maintains the PCA eigenbasis across batches.
/// Under every policy ingest folds each batch into a shadow basis with
/// ml::TrackedPca::fold (cheap, exact up to FP rounding — DESIGN.md §9) and
/// reports its subspace drift; the policy decides what the basis is *for*.
enum class PcaUpdatePolicy : unsigned char {
  /// kRefit actions run the cold covariance fit, bit-identical to the batch
  /// path; the tracked basis is telemetry only (default).
  kRefit,
  /// kRefit actions splice the materialised tracked basis and replay only the
  /// downstream stages (Analyzer::refit_incremental) — never a cold PCA fit.
  kIncremental,
  /// Incremental while the tracked drift stays within
  /// DriftConfig::pca_drift_limit; beyond it the action escalates to a cold
  /// refit that refreshes the frame and rebases the tracked basis.
  kAuto,
};

struct FlareConfig {
  dcsim::MachineConfig machine;  ///< the datacenter's (and testbed's) shape
  dcsim::ModelOptions model;
  ProfilerConfig profiler;
  AnalyzerConfig analyzer;
  MetricSchema schema = MetricSchema::kStandard;
  /// Thresholds for the ingest-time drift classification (see core/drift.hpp).
  DriftConfig drift;
  /// Adaptive response to non-stationary streams: change-point detection with
  /// refit hysteresis, anomaly-episode quarantine, and the staleness guard
  /// (off by default; see core/drift_response.hpp).
  DriftResponseConfig drift_response;
  /// Ingest-time eigenbasis maintenance (see PcaUpdatePolicy).
  PcaUpdatePolicy pca_update = PcaUpdatePolicy::kRefit;
  /// Retry / deadline / noise-gate policy for testbed replays (step 4).
  ReplayPolicy replay;
  /// Testbed fault injection for the replay plane (off by default; the clean
  /// path stays bit-identical — see dcsim/replay_faults.hpp).
  dcsim::ReplayFaultOptions replay_faults;

  /// Worker threads for the pipeline's shared pool: 1 = run inline (default),
  /// 0 = one per hardware thread. The pool is owned by FlarePipeline and
  /// shared across profiling and analysis; results are bit-identical for
  /// every value (see DESIGN.md "Performance & threading model").
  std::size_t threads = 1;

  FlareConfig() : machine(dcsim::default_machine()) {}
};

/// Resolves a schema selector to its (long-lived) catalog.
[[nodiscard]] const metrics::MetricCatalog& resolve_schema(MetricSchema schema);

/// How FlarePipeline::ingest resolves the drift verdict into an action.
enum class RefitPolicy : unsigned char {
  kAuto,    ///< act on the verdict as classified (default)
  kNever,   ///< refuse full refits: a kRefit verdict downgrades to kReweight
  kAlways,  ///< force a (warm-started) full refit on every batch
};

/// What ingest() did with one batch.
struct IngestReport {
  /// The drift classification of the freshly profiled batch.
  DriftReport drift;
  /// The action actually taken after applying the RefitPolicy — kValid:
  /// new rows assigned into the fitted space, nothing re-ran; kReweight:
  /// weights + representatives refreshed; kRefit: full warm-started refit.
  DriftVerdict action = DriftVerdict::kValid;
  /// Scenarios appended to the population.
  std::size_t appended = 0;
  /// Row index (into the combined database/ScenarioSet) of the first one.
  std::size_t first_new_row = 0;
  /// Telemetry from folding this batch into the tracked eigenbasis
  /// (ml::TrackedPca::fold) — maintained under every PcaUpdatePolicy.
  ml::PcaUpdateStats pca_update;
  /// sin(max principal angle) between the basis the analysis projects with
  /// and the tracked basis after this batch (ml::TrackedPca::drift). The
  /// value the kAuto escalation and refit-mode choice keyed off; a refit
  /// action rebases the tracked anchor, so the *next* report starts near 0.
  double pca_drift = 0.0;
  /// The kRefit action was satisfied by splicing the tracked basis
  /// (Analyzer::refit_incremental) instead of a cold PCA fit.
  bool pca_incremental_refit = false;
  /// kAuto only: the tracked drift exceeded DriftConfig::pca_drift_limit and
  /// escalated the action to a (cold, frame-refreshing) refit.
  bool pca_drift_escalated = false;

  // --- Fault-tolerance telemetry for this batch (see DESIGN.md §10) ---
  /// Batch rows below the sample quorum, quarantined out of the fit.
  std::size_t rows_quarantined = 0;
  /// Their share of the batch's observation-weight mass.
  double quarantined_weight_fraction = 0.0;
  /// Batch cells median-imputed before analysis (partial rows + lost rows).
  std::size_t imputed_cells = 0;
  /// Batch samples that burned at least one profiler retry.
  int retried_samples = 0;
  /// Any quarantine or imputation happened — the batch entered degraded.
  bool degraded = false;
  /// The batch's quarantined weight fraction exceeded
  /// DriftConfig::quarantine_refit_fraction and forced a refit action
  /// (RefitPolicy::kNever vetoes; the telemetry still reports the breach).
  bool quarantine_escalated = false;

  // --- Adaptive drift response (populated when drift_response.enabled) ---
  /// Change-point / hysteresis / staleness / episode telemetry for this
  /// batch (see core/drift_response.hpp). Default-valued when disabled.
  DriftResponseReport response;
  /// The drift report re-measured on the batch with the fenced episode rows
  /// removed — the evidence the response policy acted on. Equals `drift`
  /// when no episode was fenced.
  DriftReport cleaned_drift;
};

class FlarePipeline {
 public:
  explicit FlarePipeline(FlareConfig config = {},
                         const dcsim::JobCatalog& catalog =
                             dcsim::default_job_catalog());

  /// Steps 1–3: profile every scenario, refine, PCA, cluster, extract
  /// representatives. Must be called before any evaluation.
  void fit(const dcsim::ScenarioSet& set);

  /// Step 4: estimate a feature's comprehensive HP impact.
  [[nodiscard]] FeatureEstimate evaluate(const Feature& feature);

  /// Step 4 with an uncertainty band (one extra replay per cluster; see
  /// FlareEstimator::estimate_with_validation).
  [[nodiscard]] ValidatedFeatureEstimate evaluate_with_validation(
      const Feature& feature);

  /// Step 4, per-job variant (§5.3).
  [[nodiscard]] PerJobEstimate evaluate_per_job(const Feature& feature,
                                                dcsim::JobType job);

  /// §5.6: the scheduler changed the scenario frequencies — re-derive the
  /// representatives from step 3 without re-profiling. `new_weights` is the
  /// per-scenario observation weight under the new scheduler (0 = no longer
  /// occurs), indexed like the fitted ScenarioSet.
  void apply_scheduler_change(const std::vector<double>& new_weights);

  /// Incremental ingestion: profiles a batch of freshly observed scenarios,
  /// appends them to the population, classifies the drift against the fitted
  /// analysis and takes the cheapest sound action per verdict (see
  /// IngestReport::action). The batch's scenario ids are reassigned to
  /// continue the fitted population's dense indexing. Requires fit() first.
  IngestReport ingest(const dcsim::ScenarioSet& batch,
                      RefitPolicy policy = RefitPolicy::kAuto);

  [[nodiscard]] bool fitted() const { return analysis_ != nullptr; }
  /// Row-indexed quarantine mask over the fitted population (all false on a
  /// clean fit). Aligned with scenario_set()/database() rows.
  [[nodiscard]] const std::vector<bool>& quarantined() const;
  [[nodiscard]] const metrics::MetricDatabase& database() const;
  [[nodiscard]] const AnalysisResult& analysis() const;
  [[nodiscard]] const dcsim::ScenarioSet& scenario_set() const;
  [[nodiscard]] const ImpactModel& impact_model() const;
  [[nodiscard]] const FlareConfig& config() const { return config_; }

  /// Evaluation-cost ledger: distinct scenarios replayed on the testbed.
  [[nodiscard]] std::size_t scenario_replays() const;

  /// The replay plane itself — attempt/failure ledgers, simulated testbed
  /// clock, and the per-replay health journal.
  [[nodiscard]] const Replayer& replayer() const { return replayer_; }

  /// Band widening (pp) the staleness guard currently applies to every
  /// estimate (0 unless drift_response.enabled and the model is stale).
  [[nodiscard]] double staleness_widening_pp() const {
    return response_.staleness_widening_pp();
  }

 private:
  FlareConfig config_;
  dcsim::JobCatalog catalog_;
  dcsim::InterferenceModel model_;
  ImpactModel impact_;
  Replayer replayer_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< non-null when threads != 1

  /// Restarts the tracked eigenbasis from the analysis' basis, anchoring drift
  /// measurement at the kept components (after fit() and after every refit —
  /// the frame or the basis changed under it).
  void rebase_tracked_pca();

  /// Median-imputes every non-finite cell of rows [first_row, …) of `db` with
  /// impute_medians_ (refreshing the medians from the healthy population
  /// first when they are stale/missing). Returns cells imputed.
  std::size_t impute_rows(metrics::MetricDatabase& db, std::size_t first_row);

  /// Rebuilds analysis_->quarantine from quarantined_ + the current true
  /// observation weights + imputed_cells_total_ (the single source of truth
  /// after in-place absorb actions).
  void refresh_quarantine_ledger();

  /// True observation weights (set_ order) with quarantined rows zeroed —
  /// what every weight-consuming stage sees while degraded.
  [[nodiscard]] std::vector<double> masked_weights(
      const std::vector<double>& true_weights) const;

  dcsim::ScenarioSet set_;
  std::unique_ptr<metrics::MetricDatabase> database_;
  std::unique_ptr<AnalysisResult> analysis_;
  std::vector<double> scheduler_weights_;  ///< §5.6 override (empty = original)
  /// Fault-tolerance bookkeeping (empty/zero on clean fits): which population
  /// rows are below the sample quorum, the fit-frame imputation medians, and
  /// the running imputed-cell count.
  std::vector<bool> quarantined_;
  std::vector<double> impute_medians_;
  std::size_t imputed_cells_total_ = 0;
  /// Shadow eigenbasis advanced by ml::TrackedPca::fold on every ingested
  /// batch, expressed in the fitted (frozen) refinement + standardisation
  /// frame.
  ml::TrackedPca tracked_pca_;
  /// Adaptive drift response state (inert unless drift_response.enabled).
  DriftResponsePolicy response_;
};

}  // namespace flare::core
