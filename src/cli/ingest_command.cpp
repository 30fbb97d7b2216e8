// `flare ingest`: fit a baseline population, then feed it one batch of
// freshly observed scenarios. The batch is profiled, drift-classified, and
// absorbed with the cheapest sound action (assign / reweight / warm refit);
// the printed stage re-run counts show what the incremental data plane
// actually recomputed.
#include <ostream>

#include "cli/commands.hpp"
#include "cli/config_args.hpp"
#include "core/sharded_pipeline.hpp"
#include "trace/journal.hpp"
#include "trace/metric_io.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::cli {
namespace {

core::RefitPolicy refit_policy_by_name(const std::string& name) {
  if (name == "auto") return core::RefitPolicy::kAuto;
  if (name == "never") return core::RefitPolicy::kNever;
  if (name == "always") return core::RefitPolicy::kAlways;
  throw ParseError("unknown refit policy '" + name + "' (auto|never|always)");
}

core::PcaUpdatePolicy pca_update_by_name(const std::string& name) {
  if (name == "refit") return core::PcaUpdatePolicy::kRefit;
  if (name == "incremental") return core::PcaUpdatePolicy::kIncremental;
  if (name == "auto") return core::PcaUpdatePolicy::kAuto;
  throw ParseError("unknown pca update policy '" + name +
                   "' (incremental|refit|auto)");
}

/// Prints what one shape's ingest did: drift telemetry, verdict and action,
/// the adaptive response, stage re-runs since `before`, and batch health.
void print_ingest(std::ostream& out, const core::IngestReport& report,
                  const core::FlarePipeline& shard,
                  const core::StageCounters& before, bool drift_response) {
  const core::StageCounters& after = shard.analysis().stage_counters;
  out << "batch:  " << report.appended << " scenarios (rows "
      << report.first_new_row << ".." << report.first_new_row + report.appended - 1
      << ")\n\n";
  out << "distance scale vs fitted:  "
      << util::format_double(report.drift.distance_ratio, 2) << "x\n";
  out << "out-of-coverage mass:      "
      << util::format_double(100.0 * report.drift.out_of_coverage_fraction, 1)
      << "%\n";
  out << "cluster-weight shift (TV): "
      << util::format_double(100.0 * report.drift.weight_shift, 1) << "%\n\n";
  out << "pca basis drift (sin θ):   "
      << util::format_double(report.pca_drift, 6)
      << (report.pca_drift_escalated ? "  [escalated refit]" : "") << "\n\n";
  out << "verdict: " << core::to_string(report.drift.verdict)
      << "   action: " << core::to_string(report.action);
  if (report.pca_incremental_refit) out << " (incremental pca)";
  out << "\n";
  if (drift_response) {
    out << "response: regime " << core::to_string(report.response.regime)
        << ", statistic " << util::format_double(report.response.statistic, 3)
        << ", ewma " << util::format_double(report.response.ewma, 3)
        << ", cusum " << util::format_double(report.response.cusum, 3)
        << (report.response.refit_suppressed ? "  [refit suppressed]" : "")
        << "\n";
    if (report.response.episode_rows > 0) {
      out << "  episode fenced: " << report.response.episode_rows << " rows ("
          << util::format_double(100.0 * report.response.episode_weight_fraction,
                                 1)
          << "% of batch weight, dispersion ratio "
          << util::format_double(report.response.episode_dispersion_ratio, 3)
          << ")\n";
    }
    if (report.response.staleness_widening_pp > 0.0) {
      out << "  staleness: " << report.response.batches_since_refit
          << " batches since refit, band widened +"
          << util::format_double(report.response.staleness_widening_pp, 2)
          << " pp\n";
    }
  }
  out << "stage re-runs: refine " << after.refine - before.refine
      << ", standardize " << after.standardize - before.standardize << ", pca "
      << after.pca - before.pca << ", whiten " << after.whiten - before.whiten
      << ", cluster " << after.cluster - before.cluster << ", representatives "
      << after.representatives - before.representatives
      << ", pca-incremental " << after.pca_incremental - before.pca_incremental
      << "\n";
  out << "population: " << shard.scenario_set().size() << " scenarios, "
      << shard.analysis().chosen_k << " behaviour groups\n";

  if (report.degraded) {
    out << "\nbatch health: degraded\n";
    out << "  rows quarantined:   " << report.rows_quarantined << " ("
        << util::format_double(100.0 * report.quarantined_weight_fraction, 1)
        << "% of batch weight)"
        << (report.quarantine_escalated ? "  [escalated refit]" : "") << "\n";
    out << "  cells imputed:      " << report.imputed_cells << "\n";
    out << "  samples retried:    " << report.retried_samples << "\n";
    const core::QuarantineLedger& ledger = shard.analysis().quarantine;
    out << "  population ledger:  " << ledger.quarantined_rows.size()
        << " rows, "
        << util::format_double(100.0 * ledger.quarantined_fraction(), 1)
        << "% of weight mass quarantined\n";
  }
}

}  // namespace

int run_ingest(const Args& args, std::ostream& out) {
  const std::string scenarios_path = args.require_string("scenarios");
  const std::string batch_path = args.require_string("batch");
  const dcsim::FleetConfig fleet = fleet_or_machine(args);
  const core::RefitPolicy policy =
      refit_policy_by_name(args.get_string("refit-policy", "auto"));
  const std::string metrics_path = args.get_string("metrics", "");
  const bool commit = args.get_flag("commit");
  const bool journaled = args.get_flag("journal");
  const bool resume = args.get_flag("resume");

  core::FlareConfig config;
  config.analyzer = analyzer_config_from(args);
  config.schema = schema_by_name(args.get_string("schema", "standard"));
  config.pca_update = pca_update_by_name(args.get_string("pca-update", "refit"));
  config.drift.pca_drift_limit =
      args.get_double("pca-drift-limit", config.drift.pca_drift_limit);
  config.profiler.samples_per_scenario =
      static_cast<int>(args.get_int("samples", 4));
  config.profiler.noise_stream = static_cast<std::uint64_t>(args.get_int(
      "seed", static_cast<long long>(config.profiler.noise_stream)));
  const double fault_rate = args.get_double("faults", 0.0);
  if (fault_rate > 0.0) {
    config.profiler.faults = dcsim::FaultOptions::uniform(
        fault_rate, static_cast<std::uint64_t>(args.get_int(
                        "fault-seed", static_cast<long long>(
                                          dcsim::FaultOptions{}.seed))));
  }
  config.profiler.sample_quorum =
      static_cast<int>(args.get_int("sample-quorum", 1));
  config.profiler.max_retries = static_cast<int>(args.get_int("max-retries", 2));
  apply_drift_response_args(args, config);
  config.threads = threads_from(args);
  config.profiler.threads = config.threads;
  args.reject_unconsumed();
  if (!metrics_path.empty()) {
    ensure(fleet.size() == 1,
           "ingest --metrics requires a single shape (per-shape metric "
           "archives are not wired up yet)");
    if (!commit) throw ParseError("--metrics requires --commit");
  }

  if (resume) {
    for (const std::string& path :
         metrics_path.empty() ? std::vector<std::string>{scenarios_path}
                              : std::vector<std::string>{scenarios_path,
                                                         metrics_path}) {
      const trace::JournalRecovery rec = trace::recover_append(path);
      if (rec.recovered) {
        out << "recovered " << path
            << (rec.truncated ? " (torn append truncated to " +
                                    std::to_string(rec.restored_size) + " bytes)"
                              : " (journal cleared, file intact)")
            << "\n";
      }
    }
  }

  // The batch routes per shape id: only shapes it touches run their drift
  // gate (drift in one shape never refits another).
  const dcsim::ScenarioSet batch =
      trace::load_scenario_set(batch_path, fleet.shape_names());
  core::ShardedPipeline pipeline = fit_fleet(scenarios_path, fleet, config);
  const bool fan_in = pipeline.num_shards() > 1;
  std::size_t fitted = 0;
  std::size_t groups = 0;
  std::vector<core::StageCounters> before;
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    fitted += pipeline.shard(i).scenario_set().size();
    groups += pipeline.shard(i).analysis().chosen_k;
    before.push_back(pipeline.shard(i).analysis().stage_counters);
  }
  out << "fitted " << fitted << " scenarios into " << groups
      << " behaviour groups";
  if (fan_in) out << " across " << pipeline.num_shards() << " shards";
  out << "\n";

  const core::FleetIngestReport report = pipeline.ingest(batch, policy);
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const std::string& name = fleet.shapes[i].machine.name;
    if (!report.per_shape[i].has_value()) {
      out << "shape " << name << ": untouched (no rows routed)\n";
      continue;
    }
    if (fan_in) out << "\nshape " << name << ":\n";
    print_ingest(out, *report.per_shape[i], pipeline.shard(i), before[i],
                 config.drift_response.enabled);
  }
  if (fan_in) {
    out << "fleet: " << report.appended << " rows routed to "
        << report.shards_touched() << "/" << pipeline.num_shards()
        << " shards\n";
  }

  if (commit) {
    trace::append_scenario_set(batch, scenarios_path, journaled);
    out << "appended " << batch.size() << " scenarios to " << scenarios_path
        << "\n";
    if (!metrics_path.empty()) {
      // Archive the freshly profiled rows too: the combined database's tail
      // is exactly the batch, already re-id'd to continue the population.
      const metrics::MetricDatabase& db = pipeline.shard(0).database();
      metrics::MetricDatabase profiled(db.catalog());
      for (std::size_t r = report.per_shape[0]->first_new_row;
           r < db.num_rows(); ++r) {
        profiled.add_row(db.row(r));
      }
      trace::append_metric_database(profiled, metrics_path, journaled);
      out << "appended " << profiled.num_rows() << " metric rows to "
          << metrics_path << "\n";
    }
  }
  return 0;
}

}  // namespace flare::cli
