#include "core/pipeline.hpp"

#include <cmath>

#include "ml/impute.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::core {

namespace {

// Eagerly built at load time (not lazy statics): resolve_schema can be hit
// concurrently from pool workers, and eager init keeps it a pure read with no
// first-call guard on the hot path.
const metrics::MetricCatalog kTemporalCatalog =
    metrics::MetricCatalog::with_temporal_stddev(
        metrics::MetricCatalog::standard());
const metrics::MetricCatalog kJobMixTemporalCatalog =
    metrics::MetricCatalog::with_temporal_stddev(
        metrics::MetricCatalog::standard_with_job_mix());

}  // namespace

FlarePipeline::FlarePipeline(FlareConfig config, const dcsim::JobCatalog& catalog)
    : config_(std::move(config)),
      catalog_(catalog),
      model_(catalog_, config_.model),
      impact_(config_.machine, catalog_, config_.model),
      replayer_(impact_, config_.replay,
                dcsim::ReplayFaultModel(config_.replay_faults)),
      pool_(config_.threads != 1
                ? std::make_unique<util::ThreadPool>(config_.threads)
                : nullptr),
      response_(config_.drift_response, config_.drift) {}

const metrics::MetricCatalog& resolve_schema(MetricSchema schema) {
  switch (schema) {
    case MetricSchema::kStandard:
      return metrics::MetricCatalog::standard();
    case MetricSchema::kWithJobMix:
      return metrics::MetricCatalog::standard_with_job_mix();
    case MetricSchema::kTemporal:
      return kTemporalCatalog;
    case MetricSchema::kWithJobMixTemporal:
      return kJobMixTemporalCatalog;
  }
  ensure(false, "resolve_schema: unknown schema selector");
  return metrics::MetricCatalog::standard();  // unreachable
}

void FlarePipeline::fit(const dcsim::ScenarioSet& set) {
  ensure(!set.scenarios.empty(), "FlarePipeline::fit: empty scenario set");
  set_ = set;
  const Profiler profiler(model_, config_.profiler);
  ProfileReport profiled = profiler.profile_with_health(
      set_, config_.machine, resolve_schema(config_.schema), pool_.get());
  database_ =
      std::make_unique<metrics::MetricDatabase>(std::move(profiled.database));

  // Quarantine bookkeeping: rows below the sample quorum stay in the
  // population (indices must keep lining up) but are fenced out of every
  // fitted moment; their NaN cells — and partial rows' — get the healthy
  // population's per-metric medians.
  quarantined_.assign(set_.size(), false);
  impute_medians_.clear();
  imputed_cells_total_ = 0;
  bool any_quarantined = false;
  for (std::size_t i = 0; i < profiled.health.size(); ++i) {
    if (profiled.health[i].below_quorum(config_.profiler.sample_quorum)) {
      quarantined_[i] = true;
      any_quarantined = true;
    }
  }
  if (profiled.total_imputed_cells() > 0) {
    imputed_cells_total_ = impute_rows(*database_, 0);
  }

  const AnalysisHealth health{quarantined_, imputed_cells_total_};
  const bool tracking = any_quarantined || imputed_cells_total_ > 0;
  analysis_ = std::make_unique<AnalysisResult>(Analyzer(config_.analyzer).analyze(
      *database_, pool_.get(), tracking ? &health : nullptr));
  scheduler_weights_.clear();
  rebase_tracked_pca();
}

std::size_t FlarePipeline::impute_rows(metrics::MetricDatabase& db,
                                       std::size_t first_row) {
  if (impute_medians_.empty()) {
    // Fit-frame medians over the healthy population. During fit() `db` IS the
    // population; at ingest time the archive (already imputed) serves.
    std::vector<std::size_t> excluded;
    for (std::size_t i = 0; i < quarantined_.size(); ++i) {
      if (quarantined_[i]) excluded.push_back(i);
    }
    impute_medians_ = ml::finite_column_medians(database_->to_matrix(), excluded);
  }
  std::size_t imputed = 0;
  for (std::size_t r = first_row; r < db.num_rows(); ++r) {
    metrics::MetricRow& row = db.row_mutable(r);
    for (std::size_t c = 0; c < row.values.size(); ++c) {
      if (!std::isfinite(row.values[c])) {
        row.values[c] = impute_medians_[c];
        ++imputed;
      }
    }
  }
  return imputed;
}

void FlarePipeline::refresh_quarantine_ledger() {
  QuarantineLedger ledger;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    const double w = set_.scenarios[i].observation_weight;
    ledger.total_weight += w;
    if (i < quarantined_.size() && quarantined_[i]) {
      ledger.quarantined_rows.push_back(i);
      ledger.quarantined_weight += w;
    }
  }
  ledger.imputed_cells = imputed_cells_total_;
  analysis_->quarantine = std::move(ledger);
}

std::vector<double> FlarePipeline::masked_weights(
    const std::vector<double>& true_weights) const {
  std::vector<double> masked = true_weights;
  for (std::size_t i = 0; i < masked.size() && i < quarantined_.size(); ++i) {
    if (quarantined_[i]) masked[i] = 0.0;
  }
  return masked;
}

void FlarePipeline::rebase_tracked_pca() {
  tracked_pca_ = ml::TrackedPca(analysis_->pca, analysis_->num_components);
}

FeatureEstimate FlarePipeline::evaluate(const Feature& feature) {
  ensure(fitted(), "FlarePipeline::evaluate: call fit() first");
  const FlareEstimator estimator(*analysis_, set_, replayer_);
  FeatureEstimate est = estimator.estimate(feature);
  est.replay.staleness_widening_pp = response_.staleness_widening_pp();
  return est;
}

ValidatedFeatureEstimate FlarePipeline::evaluate_with_validation(
    const Feature& feature) {
  ensure(fitted(), "FlarePipeline::evaluate_with_validation: call fit() first");
  const FlareEstimator estimator(*analysis_, set_, replayer_);
  ValidatedFeatureEstimate out = estimator.estimate_with_validation(feature);
  // Staleness guard: a model past its drift-rate-scaled batch-age budget
  // reports a proportionally wider band (exactly +0.0 when fresh/disabled).
  out.estimate.replay.staleness_widening_pp = response_.staleness_widening_pp();
  out.uncertainty_pp += response_.staleness_widening_pp();
  return out;
}

PerJobEstimate FlarePipeline::evaluate_per_job(const Feature& feature,
                                               dcsim::JobType job) {
  ensure(fitted(), "FlarePipeline::evaluate_per_job: call fit() first");
  const FlareEstimator estimator(*analysis_, set_, replayer_);
  PerJobEstimate est = estimator.estimate_per_job(feature, job);
  est.replay.staleness_widening_pp = response_.staleness_widening_pp();
  return est;
}

void FlarePipeline::apply_scheduler_change(const std::vector<double>& new_weights) {
  ensure(fitted(), "FlarePipeline::apply_scheduler_change: call fit() first");
  bool tracking = false;
  for (const bool q : quarantined_) tracking = tracking || q;
  const Analyzer analyzer(config_.analyzer);
  // Quarantined rows stay fenced out under the new scheduler too.
  *analysis_ = analyzer.recluster(
      *analysis_, tracking ? masked_weights(new_weights) : new_weights,
      pool_.get());
  scheduler_weights_ = new_weights;
  // Estimation must also see the new frequencies.
  for (std::size_t i = 0; i < set_.scenarios.size(); ++i) {
    set_.scenarios[i].observation_weight = new_weights[i];
  }
  if (tracking) refresh_quarantine_ledger();
}

IngestReport FlarePipeline::ingest(const dcsim::ScenarioSet& batch,
                                   RefitPolicy policy) {
  ensure(fitted(), "FlarePipeline::ingest: call fit() first");
  ensure(!batch.scenarios.empty(), "FlarePipeline::ingest: empty batch");
  // A NaN, infinite or negative weight would turn every refreshed cluster
  // weight into NaN; refuse it before any profiling work.
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    const double w = batch.scenarios[i].observation_weight;
    if (!std::isfinite(w) || w < 0.0) {
      throw FaultError("FlarePipeline::ingest: batch row " + std::to_string(i) +
                       " has weight " + util::format_double_exact(w) +
                       " — weights must be finite and non-negative");
    }
  }

  // Re-id the batch so it continues the fitted population's dense indexing
  // (batch ids are whatever the collector used; row index is what matters).
  dcsim::ScenarioSet fresh = batch;
  fresh.machine_type = set_.machine_type;
  for (std::size_t i = 0; i < fresh.scenarios.size(); ++i) {
    fresh.scenarios[i].id = set_.size() + i;
  }

  const Profiler profiler(model_, config_.profiler);
  ProfileReport profiled = profiler.profile_with_health(
      fresh, config_.machine, resolve_schema(config_.schema), pool_.get());
  metrics::MetricDatabase fresh_db = std::move(profiled.database);

  IngestReport report;
  report.appended = fresh.size();
  report.first_new_row = set_.size();

  // Batch measurement health: quarantine rows below the sample quorum,
  // median-impute what the profiler could not read, and report a degraded
  // batch instead of throwing mid-ingest.
  std::vector<bool> batch_quarantined(fresh.size(), false);
  double batch_weight = 0.0;
  double batch_quarantined_weight = 0.0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const double w = fresh.scenarios[i].observation_weight;
    batch_weight += w;
    if (profiled.health[i].below_quorum(config_.profiler.sample_quorum)) {
      batch_quarantined[i] = true;
      ++report.rows_quarantined;
      batch_quarantined_weight += w;
    }
  }
  report.retried_samples = profiled.total_retried_samples();
  if (profiled.total_imputed_cells() > 0) {
    report.imputed_cells = impute_rows(fresh_db, 0);
    imputed_cells_total_ += report.imputed_cells;
  }
  report.quarantined_weight_fraction =
      batch_weight > 0.0 ? batch_quarantined_weight / batch_weight : 0.0;
  report.degraded = report.rows_quarantined > 0 || report.imputed_cells > 0;

  const DriftMonitor monitor(*analysis_, config_.drift);
  report.drift = monitor.inspect(fresh_db);
  report.cleaned_drift = report.drift;
  const linalg::Matrix fresh_raw = fresh_db.to_matrix();

  // Anomaly-episode fencing (drift response, any RefitPolicy): a
  // cluster-coherent clump of uncovered rows is one interference episode, not
  // population drift. Fence it into the batch quarantine BEFORE the tracked
  // basis folds the batch (so the episode cannot rotate the basis) and
  // re-measure drift on the healthy remainder — the verdict the rest of
  // ingest acts on must not be poisoned by the episode. The fenced weight is
  // deliberately kept out of quarantined_weight_fraction: an episode is
  // handled evidence, not measurement failure, and must not trip the
  // quarantine refit escalation.
  if (config_.drift_response.enabled) {
    const EpisodeFence fence = detect_anomalous_episode(
        *analysis_, stages::project_rows(*analysis_, fresh_raw), report.drift,
        config_.drift_response);
    if (fence.detected()) {
      double fenced_weight = 0.0;
      for (const std::size_t row : fence.rows) {
        fenced_weight += fresh.scenarios[row].observation_weight;
        batch_quarantined[row] = true;
      }
      report.response.episode_rows = fence.rows.size();
      report.response.episode_weight_fraction =
          batch_weight > 0.0 ? fenced_weight / batch_weight : 0.0;
      report.response.episode_dispersion_ratio = fence.dispersion_ratio;
      metrics::MetricDatabase healthy_db(fresh_db.catalog());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (!batch_quarantined[i]) healthy_db.add_row(fresh_db.row(i));
      }
      if (healthy_db.num_rows() > 0) {
        // Note: cleaned_drift.uncovered_rows index the healthy sub-batch.
        report.cleaned_drift = monitor.inspect(healthy_db);
      }
    }
  }

  // Fold the batch into the tracked eigenbasis first — in the frozen fitted
  // frame (fitted refinement + standardizer), the coordinates the basis has
  // been maintained in since the last rebase. Runs under every policy: the
  // drift telemetry is what lets kAuto decide when the analysis basis went
  // stale, and under kRefit it is free diagnostics (DESIGN.md §9). Only
  // healthy batch rows feed the basis — quarantined rows are median-filled
  // noise and must not rotate it.
  std::vector<std::size_t> healthy_batch;
  healthy_batch.reserve(fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (!batch_quarantined[i]) healthy_batch.push_back(i);
  }
  if (!healthy_batch.empty()) {
    const linalg::Matrix basis_rows =
        healthy_batch.size() == fresh.size()
            ? fresh_raw
            : fresh_raw.select_rows(healthy_batch);
    const linalg::Matrix std_batch = analysis_->standardizer.transform(
        basis_rows.select_columns(analysis_->kept_columns));
    ml::Standardizer batch_moments;
    batch_moments.fit(std_batch);
    report.pca_update = tracked_pca_.fold(std_batch, batch_moments, pool_.get());
    report.pca_drift = report.pca_update.subspace_drift;
    ++analysis_->stage_counters.pca_incremental;
  }

  report.action = report.cleaned_drift.verdict;
  if (policy == RefitPolicy::kAlways) {
    report.action = DriftVerdict::kRefit;
  } else if (policy == RefitPolicy::kNever &&
             report.action == DriftVerdict::kRefit) {
    report.action = DriftVerdict::kReweight;
  }
  // kAuto's second trigger: the basis itself rotated past the configured
  // limit even though the distance/coverage criteria stayed quiet. kNever
  // keeps its veto — basis staleness never overrides an explicit no-refit.
  if (config_.pca_update == PcaUpdatePolicy::kAuto &&
      policy != RefitPolicy::kNever && report.action != DriftVerdict::kRefit) {
    const DriftVerdict escalated = escalate_for_basis_drift(
        report.action, report.pca_drift, config_.drift);
    if (escalated != report.action) {
      report.action = escalated;
      report.pca_drift_escalated = true;
    }
  }
  // Quarantine escalation: absorbing a batch whose weight mass is mostly
  // fenced out would skew the cluster weights against the healthy
  // population — force a refit instead (kNever keeps its veto here too).
  if (report.quarantined_weight_fraction >
          config_.drift.quarantine_refit_fraction &&
      policy != RefitPolicy::kNever && report.action != DriftVerdict::kRefit) {
    report.action = DriftVerdict::kRefit;
    report.quarantine_escalated = true;
  }
  // Adaptive response (kAuto only): the change-point detector decides whether
  // the refit-worthy evidence is sustained (commit) or a transient burst
  // (suppress to reweight), and the staleness guard updates the band
  // widening. kAlways stays the always-refit baseline and kNever keeps its
  // veto — neither advances the detector.
  if (config_.drift_response.enabled && policy == RefitPolicy::kAuto) {
    report.action =
        response_.resolve(report.action, report.cleaned_drift, report.response);
  }

  // Grow the population. Observation weights for all accounting come from
  // set_ (apply_scheduler_change keeps those current; the archived database
  // rows may carry pre-change weights), so sync the database before any use.
  set_.scenarios.insert(set_.scenarios.end(), fresh.scenarios.begin(),
                        fresh.scenarios.end());
  database_->append(fresh_db);
  quarantined_.insert(quarantined_.end(), batch_quarantined.begin(),
                      batch_quarantined.end());
  if (!scheduler_weights_.empty()) {
    for (const dcsim::ColocationScenario& s : fresh.scenarios) {
      scheduler_weights_.push_back(s.observation_weight);
    }
  }
  std::vector<double> combined;
  combined.reserve(set_.size());
  for (const dcsim::ColocationScenario& s : set_.scenarios) {
    combined.push_back(s.observation_weight);
  }
  // The archive keeps TRUE weights (quarantine must not rewrite history);
  // the masked copy is what every weight-consuming stage sees.
  database_->set_observation_weights(combined);
  bool tracking = imputed_cells_total_ > 0;
  for (const bool q : quarantined_) tracking = tracking || q;
  const std::vector<double> stage_weights =
      tracking ? masked_weights(combined) : combined;
  if (tracking) {
    double mass = 0.0;
    for (const double w : stage_weights) mass += w;
    if (mass <= 0.0) {
      throw QuarantineError(
          "FlarePipeline::ingest: quarantine removed all observation-weight "
          "mass from the population");
    }
  }

  switch (report.action) {
    case DriftVerdict::kValid:
      // Same behaviours, same frequencies: assign the new rows into the
      // fitted cluster space; no stage re-runs.
      stages::absorb_rows(*analysis_, stages::project_rows(*analysis_, fresh_raw),
                          stage_weights, /*refresh_representatives=*/false);
      break;
    case DriftVerdict::kReweight:
      // Same behaviours, shifted frequencies: reuse every fitted stage,
      // refresh only the weights and representatives.
      stages::absorb_rows(*analysis_, stages::project_rows(*analysis_, fresh_raw),
                          stage_weights, /*refresh_representatives=*/true);
      break;
    case DriftVerdict::kRefit: {
      const Analyzer analyzer(config_.analyzer);
      const AnalysisHealth health{quarantined_, imputed_cells_total_};
      const AnalysisHealth* health_ptr = tracking ? &health : nullptr;
      const bool incremental =
          config_.pca_update == PcaUpdatePolicy::kIncremental ||
          (config_.pca_update == PcaUpdatePolicy::kAuto &&
           report.pca_drift <= config_.drift.pca_drift_limit);
      if (incremental) {
        // New behaviours, small basis rotation: splice the materialised
        // tracked basis and replay only the downstream stages over the
        // combined population. The analysis now projects with that basis
        // itself, so tracking restarts from it (future drift measures from
        // here).
        *analysis_ = analyzer.refit_incremental(
            *database_, tracked_pca_.materialize(pool_.get()), *analysis_,
            pool_.get(), health_ptr);
        report.pca_incremental_refit = true;
        rebase_tracked_pca();
      } else {
        // Full refit over the combined population, warm-started from the
        // previous centroids; all six stages re-run and the counters carry
        // on from the previous analysis. The fitted frame may change, so the
        // tracked basis restarts from the cold fit — and the imputation
        // medians go stale with the old frame.
        AnalysisResult refit = analyzer.analyze(*database_, pool_.get(),
                                                health_ptr, analysis_.get());
        refit.stage_counters += analysis_->stage_counters;
        *analysis_ = std::move(refit);
        rebase_tracked_pca();
        impute_medians_.clear();
      }
      break;
    }
  }
  if (config_.drift_response.enabled && report.action == DriftVerdict::kRefit) {
    response_.note_refit();
  }
  if (tracking) refresh_quarantine_ledger();
  return report;
}

const std::vector<bool>& FlarePipeline::quarantined() const {
  ensure(fitted(), "FlarePipeline::quarantined: call fit() first");
  return quarantined_;
}

const metrics::MetricDatabase& FlarePipeline::database() const {
  ensure(fitted(), "FlarePipeline::database: call fit() first");
  return *database_;
}

const AnalysisResult& FlarePipeline::analysis() const {
  ensure(fitted(), "FlarePipeline::analysis: call fit() first");
  return *analysis_;
}

const dcsim::ScenarioSet& FlarePipeline::scenario_set() const {
  ensure(fitted(), "FlarePipeline::scenario_set: call fit() first");
  return set_;
}

const ImpactModel& FlarePipeline::impact_model() const { return impact_; }

std::size_t FlarePipeline::scenario_replays() const {
  return replayer_.distinct_scenario_replays();
}

}  // namespace flare::core
