#include "cli/commands.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "baselines/sampling_evaluator.hpp"
#include "cli/config_args.hpp"
#include "cli/feature_spec.hpp"
#include "core/out_of_core.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/fleet.hpp"
#include "dcsim/submission.hpp"
#include "report/table.hpp"
#include "trace/metric_io.hpp"
#include "trace/scenario_io.hpp"
#include "trace/store_io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::cli {

int run_simulate(const Args& args, std::ostream& out) {
  const std::string out_path = args.require_string("out");
  const std::optional<dcsim::FleetConfig> fleet = fleet_from(args);
  const dcsim::MachineConfig machine =
      machine_by_name(args.get_string("machine", "default"));
  dcsim::SubmissionConfig config;
  config.target_distinct_scenarios =
      static_cast<std::size_t>(args.get_int("scenarios", 895));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  config.num_machines = static_cast<int>(args.get_int("machines", 8));
  const std::optional<dcsim::WorkloadDynamics> dynamics =
      dynamics_from(args, fleet);
  if (dynamics.has_value()) config.dynamics = *dynamics;
  args.reject_unconsumed();

  if (fleet.has_value()) {
    // Heterogeneous fleet: one scheduler per shape (jobs are placed
    // per-shape), every archived row carries its shape id.
    std::vector<dcsim::SubmissionStats> stats;
    const dcsim::FleetScenarioSet sets = dcsim::generate_fleet_scenario_set(
        config, *fleet, dcsim::default_job_catalog(), &stats);
    const std::vector<double> weights = fleet->population_weights();
    for (std::size_t i = 0; i < fleet->shapes.size(); ++i) {
      out << "shape " << fleet->shapes[i].machine.name << " ("
          << fleet->shapes[i].num_machines << " machines, w="
          << static_cast<int>(100.0 * weights[i]) << "%): "
          << sets.per_shape[i].size() << " scenarios over "
          << stats[i].simulated_hours << " h\n";
    }
    const dcsim::ScenarioSet merged = sets.merged();
    if (config.dynamics.any()) {
      std::size_t tagged = 0;
      for (const dcsim::ColocationScenario& s : merged.scenarios) {
        if (s.dynamic_tagged()) ++tagged;
      }
      out << "dynamics: " << tagged << " of " << merged.size()
          << " scenarios carry non-stationary tags\n";
    }
    trace::save_scenario_set(merged, out_path);
    out << "fleet: " << sets.total_scenarios()
        << " distinct co-location scenarios across " << fleet->size()
        << " shapes\n"
        << "wrote " << out_path << "\n";
    return 0;
  }

  dcsim::SubmissionStats stats;
  const dcsim::ScenarioSet set = dcsim::generate_scenario_set(
      config, machine, dcsim::default_job_catalog(), &stats);
  if (config.dynamics.any()) {
    std::size_t tagged = 0;
    for (const dcsim::ColocationScenario& s : set.scenarios) {
      if (s.dynamic_tagged()) ++tagged;
    }
    out << "dynamics: " << tagged << " of " << set.size()
        << " scenarios carry non-stationary tags\n";
  }
  trace::save_scenario_set(set, out_path);
  out << "simulated " << stats.simulated_hours << " h of datacenter time on "
      << config.num_machines << " " << machine.name << " machines\n"
      << "collected " << set.size() << " distinct co-location scenarios ("
      << stats.denials << " scheduling denials, "
      << static_cast<int>(100.0 * stats.mean_cpu_occupancy)
      << "% mean occupancy)\n"
      << "wrote " << out_path << "\n";
  return 0;
}

int run_profile(const Args& args, std::ostream& out) {
  const std::string scenarios_path = args.require_string("scenarios");
  const std::string out_path = args.require_string("out");
  const dcsim::MachineConfig machine =
      machine_by_name(args.get_string("machine", "default"));
  core::ProfilerConfig config;
  config.samples_per_scenario = static_cast<int>(args.get_int("samples", 4));
  config.noise_stream = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(config.noise_stream)));
  config.threads = threads_from(args);
  const core::MetricSchema schema =
      schema_by_name(args.get_string("schema", "standard"));
  args.reject_unconsumed();

  const dcsim::ScenarioSet set = trace::load_scenario_set(scenarios_path);
  const dcsim::InterferenceModel model;
  const core::Profiler profiler(model, config);
  const metrics::MetricDatabase db =
      profiler.profile(set, machine, core::resolve_schema(schema));
  trace::save_metric_database(db, out_path);
  out << "profiled " << db.num_rows() << " scenarios x " << db.num_metrics()
      << " raw metrics (" << config.samples_per_scenario
      << " samples each) on the " << machine.name << " shape\n"
      << "wrote " << out_path << "\n";
  return 0;
}

namespace {

/// Prints one analysis: refinement, PCs, the optional quality sweep and the
/// cluster table; `keys` names each cluster's representative scenario.
void print_analysis(std::ostream& out, const core::AnalysisResult& analysis,
                    std::size_t num_metrics,
                    const std::vector<std::string>& keys) {
  out << "refinement: " << num_metrics << " raw -> "
      << analysis.kept_columns.size() << " kept ("
      << analysis.constant_columns.size() << " constant, "
      << analysis.refinement.drops.size() << " correlation duplicates)\n";
  out << "PCA: " << analysis.num_components << " components explain "
      << static_cast<int>(1000.0 * analysis.pca.cumulative_explained_variance(
                              analysis.num_components)) / 10.0
      << "% of variance\n";
  for (const core::PcInterpretation& pc : analysis.interpretations) {
    out << "  PC" << pc.component << " ("
        << static_cast<int>(1000.0 * pc.explained_variance_ratio) / 10.0
        << "%): " << pc.label << "\n";
  }
  if (!analysis.quality_curve.empty()) {
    out << "cluster-quality sweep (k, SSE, silhouette):\n";
    for (const core::ClusterQualityPoint& p : analysis.quality_curve) {
      out << "  " << p.k << "  " << p.sse << "  " << p.silhouette << "\n";
    }
  }
  out << "clusters: " << analysis.chosen_k << "\n";
  report::AsciiTable table({"cluster", "weight %", "members", "representative"});
  table.set_alignment(3, report::Align::kLeft);
  for (std::size_t c = 0; c < analysis.chosen_k; ++c) {
    table.add_row({std::to_string(c),
                   report::AsciiTable::cell(100.0 * analysis.cluster_weights[c], 1),
                   std::to_string(analysis.clustering.cluster_sizes[c]),
                   keys[c]});
  }
  table.print(out);
}

}  // namespace

int run_analyze(const Args& args, std::ostream& out) {
  const std::string metrics_path = args.require_string("metrics");
  const std::optional<dcsim::FleetConfig> fleet = fleet_from(args);
  const core::AnalyzerConfig config = analyzer_config_from(args);
  const core::MetricSchema schema =
      schema_by_name(args.get_string("schema", "standard"));
  const std::string storage = args.get_string("storage", "ram");
  ensure(storage == "ram" || storage == "mmap",
         "unknown --storage '" + storage + "' (ram|mmap)");
  const std::size_t memory_budget = memory_budget_from(args);
  const std::string scenarios_path =
      fleet.has_value() ? args.require_string("scenarios") : "";
  args.reject_unconsumed();
  ensure(storage == "ram" || !fleet.has_value() || fleet->size() == 1,
         "analyze --storage mmap requires a single shape (per-shape "
         "out-of-core analysis runs through the ShardedPipeline API)");

  // Metric rows carry no shape id. With --shapes, row r belongs to the shape
  // of scenario r in the row-aligned trace; without, one group holds every
  // row. Each shape is analysed in its own pipeline — shapes never pool.
  const metrics::MetricCatalog& catalog = core::resolve_schema(schema);
  std::vector<std::string> shapes{""};
  std::vector<std::size_t> row_shape;
  if (fleet.has_value()) {
    shapes = fleet->shape_names();
    for (const dcsim::ColocationScenario& s :
         trace::load_scenario_set(scenarios_path, shapes).scenarios) {
      row_shape.push_back(*fleet->index_of(s.machine_type));
    }
  }

  metrics::MetricDatabase db;
  std::unique_ptr<metrics::ColumnStore> store;
  if (storage == "mmap") {
    // Out-of-core path (DESIGN.md §12): convert the CSV archive into a
    // side-car column store, then stream it — the n × d dense matrix is
    // never materialised. `.fcs` files are reusable across runs.
    const std::string store_path = metrics_path + ".fcs";
    trace::csv_to_column_store(metrics_path, store_path, catalog);
    metrics::ColumnStoreOptions store_options;
    store_options.sequential_drop = memory_budget > 0;
    store = std::make_unique<metrics::ColumnStore>(store_path, catalog,
                                                   store_options);
  } else {
    db = trace::load_metric_database(metrics_path, catalog);
  }
  const std::size_t num_rows = store ? store->num_rows() : db.num_rows();
  ensure(row_shape.empty() || row_shape.size() == num_rows,
         "analyze --shapes: the metric CSV and scenario trace must be "
         "row-aligned (" + std::to_string(num_rows) + " metric rows vs " +
             std::to_string(row_shape.size()) + " scenarios)");

  const bool fan_in = shapes.size() > 1;
  std::size_t fleet_clusters = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    core::AnalysisResult analysis;
    metrics::MetricDatabase shape_db(catalog);
    const metrics::MetricDatabase* rows = &db;
    if (store) {
      core::OutOfCoreOptions ooc;
      ooc.memory_budget_bytes = memory_budget;
      std::unique_ptr<util::ThreadPool> pool;
      if (config.threads != 1) {
        pool = std::make_unique<util::ThreadPool>(config.threads);
      }
      core::OutOfCoreTelemetry telemetry;
      analysis = core::analyze_out_of_core(*store, config, ooc, pool.get(),
                                           &telemetry);
      out << "out-of-core: " << telemetry.passes << " streaming passes over "
          << store->num_blocks() << " blocks ("
          << (store->mapped() ? "mmap" : "buffered") << "), resident "
          << telemetry.resident_bytes / 1024 << " KiB vs "
          << telemetry.dense_bytes / 1024 << " KiB dense\n";
    } else {
      if (!row_shape.empty()) {
        for (std::size_t r = 0; r < num_rows; ++r) {
          if (row_shape[r] == i) shape_db.add_row(db.row(r));
        }
        ensure(shape_db.num_rows() > 0,
               "analyze --shapes: shape '" + shapes[i] + "' has no scenario rows");
        rows = &shape_db;
      }
      analysis = core::Analyzer(config).analyze(*rows);
    }
    std::vector<std::string> keys;
    for (const std::size_t r : analysis.representatives) {
      keys.push_back(store ? store->row(r).scenario_key : rows->row(r).scenario_key);
    }
    fleet_clusters += analysis.chosen_k;
    if (fan_in) {
      out << "shape " << shapes[i] << " (w="
          << static_cast<int>(100.0 * fleet->population_weights()[i])
          << "%): " << rows->num_rows()
          << " scenarios, " << analysis.kept_columns.size() << " kept metrics, "
          << analysis.num_components << " PCs, " << analysis.chosen_k
          << " behaviour groups\n";
    }
    print_analysis(out, analysis, store ? store->num_metrics() : db.num_metrics(),
                   keys);
    if (fan_in) out << "\n";
  }
  if (fan_in) {
    out << "fleet: " << num_rows << " scenarios across " << shapes.size()
        << " shapes, " << fleet_clusters
        << " behaviour groups total (per-shape pipelines never pool)\n";
  }
  return 0;
}

int run_evaluate(const Args& args, std::ostream& out) {
  const std::string scenarios_path = args.require_string("scenarios");
  const core::Feature feature = parse_feature(args.require_string("feature"));
  const dcsim::FleetConfig fleet = fleet_or_machine(args);
  core::FlareConfig config;
  config.analyzer = analyzer_config_from(args);
  config.schema = schema_by_name(args.get_string("schema", "standard"));
  config.threads = threads_from(args);
  config.profiler.threads = config.threads;
  apply_replay_args(args, config);
  const bool per_job = args.get_flag("per-job");
  const bool with_truth = args.get_flag("truth");
  const bool with_sampling = args.get_flag("sampling");
  args.reject_unconsumed();
  ensure(!with_sampling || fleet.size() == 1,
         "evaluate --sampling requires a single shape (the sampling baseline "
         "is single-shape)");

  core::ShardedPipeline pipeline = fit_fleet(scenarios_path, fleet, config);
  const core::FleetEstimate est = pipeline.evaluate(feature);
  std::vector<double> truths;
  const double truth = with_truth || with_sampling
                           ? fleet_truth(pipeline, feature, &truths)
                           : 0.0;
  // One fleet per-job estimate per HP job; nullopt = no shape ever ran it.
  std::vector<std::optional<core::FleetPerJobEstimate>> jobs;
  if (per_job) {
    for (const dcsim::JobType job : dcsim::hp_job_types()) {
      jobs.push_back(pipeline.has_job(job)
                         ? std::optional(pipeline.evaluate_per_job(feature, job))
                         : std::nullopt);
    }
  }

  out << feature.name() << " (" << feature.description() << ")\n";
  const bool fan_in = pipeline.num_shards() > 1;
  if (fan_in) {
    std::size_t scenarios = 0;
    for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
      scenarios += pipeline.shard(i).scenario_set().size();
    }
    out << "fleet estimate: " << est.impact_pct << "% HP MIPS reduction ("
        << est.scenario_replays << " scenario replays vs " << scenarios
        << " scenarios across " << fleet.size() << " shapes)\n";
    out << "fan-in mass: direct " << 100.0 * est.replay.direct_mass
        << "% / fallback " << 100.0 * est.replay.fallback_mass
        << "% / quarantined " << 100.0 * est.replay.quarantined_mass
        << "% (total " << 100.0 * est.replay.total_mass() << "%)\n";
    report::AsciiTable table({"shape", "weight %", "impact %", "clusters",
                              "replays"});
    table.set_alignment(0, report::Align::kLeft);
    for (const core::ShardFeatureEstimate& s : est.per_shape) {
      table.add_row({s.shape, report::AsciiTable::cell(100.0 * s.weight, 1),
                     report::AsciiTable::cell(s.estimate.impact_pct),
                     std::to_string(s.estimate.per_cluster.size()),
                     std::to_string(s.estimate.scenario_replays)});
    }
    table.print(out);
    if (with_truth) {
      out << "fleet-wide truth: " << truth << "%  (sharded |error| "
          << std::abs(est.impact_pct - truth) << " pp)\n";
    }
  }

  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const core::FlarePipeline& shard = pipeline.shard(i);
    const dcsim::ScenarioSet& set = shard.scenario_set();
    const core::FeatureEstimate& shape_est = est.per_shape[i].estimate;
    if (fan_in) out << "\nshape " << est.per_shape[i].shape << ":\n";
    out << "FLARE estimate: " << shape_est.impact_pct << "% HP MIPS reduction ("
        << shape_est.scenario_replays << " scenario replays vs " << set.size()
        << " scenarios in the datacenter)\n";
    if (config.replay_faults.enabled) {
      const core::ReplayLedger& ledger = shape_est.replay;
      out << "replay health: " << ledger.total_attempts << " attempts ("
          << ledger.failed_attempts << " failed), mass direct "
          << 100.0 * ledger.direct_mass << "% / fallback "
          << 100.0 * ledger.fallback_mass << "% / quarantined "
          << 100.0 * ledger.quarantined_mass << "%, uncertainty +-"
          << ledger.measurement_uncertainty_pp + ledger.quarantine_widening_pp
          << " pp, testbed " << ledger.simulated_seconds / 3600.0
          << " h (simulated)\n";
    }
    if (with_truth || with_sampling) {
      const double dc = truths[i];
      out << "full-datacenter truth: " << dc << "%  (FLARE |error| "
          << std::abs(shape_est.impact_pct - dc) << " pp)\n";
      if (with_sampling) {
        const baselines::RandomSamplingEvaluator sampling(shard.impact_model(),
                                                          set);
        baselines::SamplingConfig sc;
        sc.sample_size = shape_est.scenario_replays;
        sc.trials = 1000;
        const baselines::SamplingResult sr = sampling.evaluate(feature, sc, dc);
        out << "sampling @ equal cost: 95% of trials in [" << sr.ci95.lower
            << ", " << sr.ci95.upper << "]%, max |error| " << sr.max_abs_error
            << " pp\n";
      }
    }

    report::AsciiTable table({"cluster", "weight %", "impact %", "representative"});
    table.set_alignment(3, report::Align::kLeft);
    for (const core::ClusterImpact& ci : shape_est.per_cluster) {
      table.add_row({std::to_string(ci.cluster),
                     report::AsciiTable::cell(100.0 * ci.weight, 1),
                     report::AsciiTable::cell(ci.impact_pct),
                     set.scenarios[ci.representative_scenario].mix.key()});
    }
    table.print(out);

    if (per_job) {
      out << "\nper-HP-job impacts:\n";
      report::AsciiTable table_jobs({"job", "impact %"});
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const bool ran = jobs[j].has_value() && jobs[j]->per_shape[i].estimate;
        table_jobs.add_row(
            {std::string(dcsim::job_code(dcsim::hp_job_types()[j])),
             ran ? report::AsciiTable::cell(jobs[j]->per_shape[i].estimate->impact_pct)
                 : "n/a (never scheduled)"});
      }
      table_jobs.print(out);
    }
  }

  if (fan_in && per_job) {
    out << "\nper-HP-job impacts (fleet-wide):\n";
    report::AsciiTable table_jobs({"job", "impact %", "covered weight %"});
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const bool ran = jobs[j].has_value();
      table_jobs.add_row(
          {std::string(dcsim::job_code(dcsim::hp_job_types()[j])),
           ran ? report::AsciiTable::cell(jobs[j]->impact_pct)
               : "n/a (never scheduled)",
           ran ? report::AsciiTable::cell(100.0 * jobs[j]->covered_weight, 1)
               : "0"});
    }
    table_jobs.print(out);
  }
  return 0;
}

int run_help(std::ostream& out) {
  out << "flare — representative-scenario datacenter feature evaluation\n\n"
         "commands:\n"
         "  simulate --out F.csv [--machine default|small|dense] [--scenarios N]\n"
         "           [--seed S] [--machines M] [--shapes SPEC]\n"
         "           [--dynamics SPEC [--dynamics-seed S] [--dynamics-start H]]\n"
         "      simulate a datacenter and archive its co-location scenarios;\n"
         "      --shapes runs one scheduler per machine shape (heterogeneous\n"
         "      fleet) and tags every row with its shape id; --dynamics\n"
         "      overlays non-stationary regimes (see dynamics SPEC below) and\n"
         "      requires an explicit --seed or --dynamics-seed; --dynamics-\n"
         "      start sets the absolute start hour so streaming batch windows\n"
         "      continue one episode timeline\n"
         "  profile --scenarios F.csv --out M.csv [--machine ...]\n"
         "          [--samples K] [--seed S] [--schema NAME] [--threads T]\n"
         "      collect the two-level raw metric database for every scenario\n"
         "  analyze --metrics M.csv [--clusters K | --auto-k] [--quality-curve]\n"
         "          [--ward] [--no-whiten] [--no-refine] [--schema NAME]\n"
         "          [--threads T] [--storage ram|mmap] [--memory-budget MB]\n"
         "          [--kmeans-mode exact|minibatch|auto]\n"
         "          [--shapes SPEC --scenarios F.csv]\n"
         "      --storage mmap streams the metrics through an out-of-core\n"
         "      column store (side-car M.csv.fcs) instead of materialising\n"
         "      the dense matrix; --memory-budget caps the resident working\n"
         "      set (MiB); --kmeans-mode picks the cluster-sweep solver\n"
         "      (minibatch = coreset solve + full-data refinement);\n"
         "      with --shapes the row-aligned scenario trace routes rows\n"
         "      refinement -> PCA -> clustering -> representative scenarios\n"
         "  evaluate --scenarios F.csv --feature SPEC [--machine ...]\n"
         "           [--clusters K] [--per-job] [--truth] [--sampling]\n"
         "           [--schema NAME] [--threads T]\n"
         "           [--replay-faults R] [--replay-fault-seed S]\n"
         "           [--replay-retries N] [--replay-deadline D] [--replay-ci W]\n"
         "           [--max-quarantined-mass M] [--shapes SPEC]\n"
         "      estimate a feature's fleet impact from the representatives;\n"
         "      --replay-faults injects testbed replay faults at rate R\n"
         "      (retried N times, deadline D seconds, repeat-measured until\n"
         "      the CI half-width is <= W pp; unreplayable representatives\n"
         "      fall back to runner-up members, unreplayable clusters are\n"
         "      quarantined up to a mass share of M before failing loudly)\n"
         "  drift --baseline M.csv --fresh M2.csv [--clusters K]\n"
         "        [--refit-ratio R] [--reweight-shift S]\n"
         "      triage representative validity: valid | reweight | refit\n"
         "  ingest --scenarios F.csv --batch B.csv\n"
         "         [--refit-policy auto|never|always] [--commit]\n"
         "         [--pca-update incremental|refit|auto] [--pca-drift-limit D]\n"
         "         [--metrics M.csv] [--machine ...] [--clusters K]\n"
         "         [--samples K] [--seed S] [--schema NAME] [--threads T]\n"
         "         [--faults R] [--fault-seed S] [--sample-quorum Q]\n"
         "         [--max-retries N] [--journal] [--resume] [--shapes SPEC]\n"
         "         [--drift-response SPEC]\n"
         "      absorb a batch of fresh scenarios with the cheapest sound\n"
         "      action for its drift verdict; --commit appends the batch to\n"
         "      the scenario CSV (and its profiled rows to --metrics);\n"
         "      --faults injects counter faults at rate R (quorum Q valid\n"
         "      samples per row, N retries); --journal guards the appends\n"
         "      with a write-ahead journal, --resume rolls back torn ones;\n"
         "      --drift-response turns on the adaptive response (see\n"
         "      drift-response SPEC below)\n"
         "  campaign --scenarios F.csv --feature SPEC [--machine ...]\n"
         "           [--clusters K] [--testbeds N] [--testbed-speeds LIST]\n"
         "           [--budget SECONDS]\n"
         "           [--target-ci PP] [--checkpoint-every N] [--prior-band PP]\n"
         "           [--no-validation] [--campaign-state C.csv] [--truth]\n"
         "           [--schema NAME] [--threads T] [--shapes SPEC]\n"
         "           [replay-fault flags as in `evaluate`]\n"
         "      schedule the feature's replays across a simulated farm of N\n"
         "      testbeds, heavy clusters first, with anytime estimates: stop\n"
         "      early once the uncertainty band is <= --target-ci pp or the\n"
         "      simulated testbed-time --budget (seconds) is spent;\n"
         "      --testbed-speeds gives each slot a speed factor (comma-\n"
         "      separated, one per testbed; 2.0 = twice as fast) — scales\n"
         "      occupancy and billed seconds, never a measurement;\n"
         "      --checkpoint-every records the narrowing band every N units,\n"
         "      --campaign-state archives the state for `flare report`,\n"
         "      --no-validation skips the band-tightening runner-up probes\n"
         "  report --scenarios F.csv --out R.md [--features LIST] [--truth]\n"
         "         [--machine ...] [--clusters K] [--replay-faults R]\n"
         "         [--replay-fault-seed S] [--replay-retries N]\n"
         "         [--replay-deadline D] [--replay-ci W]\n"
         "         [--max-quarantined-mass M] [--shapes SPEC]\n"
         "      write a Markdown evaluation report; LIST is ';'-separated\n"
         "      feature SPECs (default: the three Table 4 features);\n"
         "      replay flags as in `evaluate`\n"
         "  report --campaign-state C.csv --out R.md\n"
         "      answer from an archived (possibly mid-run) replay campaign:\n"
         "      anytime estimate + band, checkpoint narrowing history,\n"
         "      mass accounting, and per-testbed utilisation\n"
         "  serve --socket S.sock --state-dir DIR --scenarios F.csv\n"
         "        [--machine ...] [--schema NAME] [--threads T]\n"
         "        [--refit-policy auto|never|always] [--samples K] [--seed S]\n"
         "        [--max-ingest-queue N] [--max-eval-queue N]\n"
         "        [--default-deadline-ms MS] [--frame-timeout-ms MS]\n"
         "        [--drift-response SPEC] [replay-fault flags as in `evaluate`]\n"
         "      run the resident service daemon on a Unix socket: coalesced\n"
         "      ingest batching (one profiler pass per queue drain), bounded\n"
         "      per-class admission with explicit shed answers, deadline\n"
         "      watchdog, snapshot-consistent reads tagged with the model\n"
         "      epoch, and crash-safe resident state in --state-dir (a\n"
         "      kill -9'd daemon recovers bit-identical to replaying its\n"
         "      acknowledged ingests; unacknowledged groups are reported)\n"
         "  client --socket S.sock --request VERB [--batch B.csv]\n"
         "         [--feature SPEC] [--features LIST] [--validate]\n"
         "         [--deadline-ms MS] [--timeout-ms MS]\n"
         "      one-shot caller for a running daemon; VERB is\n"
         "      status|ingest|evaluate|report|shutdown. Prints the response\n"
         "      payload (key=value lines, epoch included); a non-ok outcome\n"
         "      (shed/timeout/failed) exits with the serve error code\n"
         "  help\n\n"
         "exit codes: 0 ok, 2 parse/usage, 3 numerical, 4 capacity,\n"
         "  5 fault, 6 quarantine, 7 replay, 8 journal, 9 serve, 1 other\n\n"
         "shapes SPEC: comma-separated shape[:count] entries, e.g.\n"
         "  'default:6,small:2,dense:4' — count = machines of that shape;\n"
         "  weights for the fleet-wide fan-in are machine-count shares.\n"
         "  analyze, evaluate, ingest, campaign and report run one pipeline\n"
         "  per shape, print each shape's detail, and with several shapes the\n"
         "  fleet fan-in; without --shapes the fleet is one --machine shape,\n"
         "  and a trace row naming another shape is refused (exit 2).\n"
         "  --sampling, --storage mmap and ingest --metrics need one shape\n"
         "dynamics SPEC: comma-separated generator entries name[:key=value...]\n"
         "  with name = diurnal (period= amp= hp_amp= phase=), flash\n"
         "  (rate= dur= mult= short=), upgrade (at= frac= shift=), anomaly\n"
         "  (rate= dur= intensity= frac=); every generator takes shape= to\n"
         "  scope it to one --shapes shape, e.g.\n"
         "  'diurnal:amp=0.4,flash:rate=3:mult=5,upgrade:at=48:frac=0.5'\n"
         "drift-response SPEC: 'on', 'off', or key=value entries (imply on),\n"
         "  comma-separated: ewma|confirm|cooldown|cusum-ref|cusum|budget|\n"
         "  widen|widen-cap|coherence|min-rows|separation — change-point\n"
         "  confirmation, refit hysteresis, staleness band widening, and\n"
         "  anomaly-episode quarantine over the ingest drift gate\n"
         "schema NAME: standard | job-mix (§5.3 per-job columns) |\n"
         "  temporal (§4.1 stddev columns) | job-mix-temporal\n"
         "feature SPEC: feature1|feature2|feature3|baseline, or knobs like\n"
         "  'fmax=2.0,llc=20,smt=off' (fmax/fmin GHz, llc MB/socket,\n"
         "  smt on|off, memlat ns)\n"
         "threads T: worker threads (1 = serial, 0 = all hardware threads);\n"
         "  results are identical for every value\n";
  return 0;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  try {
    const Args args = Args::parse(argc, argv);
    const std::string& command = args.command();
    if (command == "simulate") return run_simulate(args, out);
    if (command == "profile") return run_profile(args, out);
    if (command == "analyze") return run_analyze(args, out);
    if (command == "evaluate") return run_evaluate(args, out);
    if (command == "report") return run_report(args, out);
    if (command == "campaign") return run_campaign(args, out);
    if (command == "drift") return run_drift(args, out);
    if (command == "ingest") return run_ingest(args, out);
    if (command == "serve") return run_serve(args, out);
    if (command == "client") return run_client(args, out);
    if (command == "help" || command == "--help") return run_help(out);
    throw ParseError("unknown command '" + command +
                     "' (expected simulate|profile|analyze|evaluate|campaign|"
                     "report|drift|ingest|serve|client|help)");
  } catch (const ParseError& e) {
    err << "flare: " << e.what() << "\n";
    return 2;
  } catch (const NumericalError& e) {
    err << "flare: " << e.what() << "\n";
    return 3;
  } catch (const CapacityError& e) {
    err << "flare: " << e.what() << "\n";
    return 4;
  } catch (const FaultError& e) {
    err << "flare: " << e.what() << "\n";
    return 5;
  } catch (const QuarantineError& e) {
    err << "flare: " << e.what() << "\n";
    return 6;
  } catch (const ReplayError& e) {
    err << "flare: " << e.what() << "\n";
    return 7;
  } catch (const JournalError& e) {
    err << "flare: " << e.what() << "\n";
    return 8;
  } catch (const ServeError& e) {
    err << "flare: " << e.what() << "\n";
    return 9;
  } catch (const std::invalid_argument& e) {
    // ensure() reports precondition violations this way — usage errors,
    // same bucket as ParseError.
    err << "flare: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "flare: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace flare::cli
