#include "cli/config_args.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "baselines/full_evaluator.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace flare::cli {

core::MetricSchema schema_by_name(const std::string& name) {
  if (name == "standard") return core::MetricSchema::kStandard;
  if (name == "job-mix") return core::MetricSchema::kWithJobMix;
  if (name == "temporal") return core::MetricSchema::kTemporal;
  if (name == "job-mix-temporal") return core::MetricSchema::kWithJobMixTemporal;
  throw ParseError("unknown schema '" + name +
                   "' (standard|job-mix|temporal|job-mix-temporal)");
}

dcsim::MachineConfig machine_by_name(const std::string& name) {
  if (name == "default") return dcsim::default_machine();
  if (name == "small") return dcsim::small_machine();
  if (name == "dense") return dcsim::dense_machine();
  throw ParseError("unknown machine shape '" + name + "' (default|small|dense)");
}

std::optional<dcsim::FleetConfig> fleet_from(const Args& args) {
  const std::string spec = args.get_string("shapes", "");
  if (spec.empty()) return std::nullopt;
  return dcsim::parse_fleet_spec(spec);
}

dcsim::FleetConfig fleet_or_machine(const Args& args) {
  const dcsim::MachineConfig machine =
      machine_by_name(args.get_string("machine", "default"));
  if (std::optional<dcsim::FleetConfig> fleet = fleet_from(args)) return *fleet;
  dcsim::FleetConfig fleet;
  fleet.shapes.push_back({machine, 1});
  return fleet;
}

core::ShardedPipeline fit_fleet(const std::string& path,
                                const dcsim::FleetConfig& fleet,
                                const core::FlareConfig& config) {
  const dcsim::ScenarioSet set =
      trace::load_scenario_set(path, fleet.shape_names());
  core::ShardedConfig sharded;
  sharded.base = config;
  sharded.fleet = fleet;
  core::ShardedPipeline pipeline(sharded);
  pipeline.fit(set);
  return pipeline;
}

double fleet_truth(const core::ShardedPipeline& pipeline,
                   const core::Feature& feature,
                   std::vector<double>* per_shape) {
  const std::vector<double> weights = pipeline.weights();
  double truth = 0.0;
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const baselines::FullDatacenterEvaluator evaluator(
        pipeline.shard(i).impact_model(), pipeline.shard(i).scenario_set());
    const double shape_truth = evaluator.evaluate(feature).impact_pct;
    if (per_shape != nullptr) per_shape->push_back(shape_truth);
    truth += weights[i] * shape_truth;
  }
  return truth;
}

std::size_t threads_from(const Args& args) {
  const long long threads = args.get_int("threads", 1);
  ensure(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  return static_cast<std::size_t>(threads);
}

core::AnalyzerConfig analyzer_config_from(const Args& args) {
  core::AnalyzerConfig config;
  const long long clusters = args.get_int("clusters", 18);
  ensure(clusters >= 2, "--clusters must be >= 2");
  config.fixed_clusters = static_cast<std::size_t>(clusters);
  if (args.get_flag("auto-k")) config.fixed_clusters = std::nullopt;
  config.compute_quality_curve =
      args.get_flag("quality-curve") || !config.fixed_clusters.has_value();
  if (args.get_flag("ward")) {
    config.algorithm = core::ClusterAlgorithm::kWardAgglomerative;
  }
  if (args.get_flag("no-whiten")) config.whiten = false;
  if (args.get_flag("no-refine")) config.use_correlation_filter = false;
  const std::string mode = args.get_string("kmeans-mode", "exact");
  if (mode == "exact") {
    config.kmeans_mode = core::KMeansMode::kExact;
  } else if (mode == "minibatch") {
    config.kmeans_mode = core::KMeansMode::kMiniBatch;
  } else if (mode == "auto") {
    config.kmeans_mode = core::KMeansMode::kAuto;
  } else {
    throw ParseError("unknown --kmeans-mode '" + mode +
                     "' (exact|minibatch|auto)");
  }
  config.threads = threads_from(args);
  return config;
}

std::size_t memory_budget_from(const Args& args) {
  const long long budget_mb = args.get_int("memory-budget", 0);
  ensure(budget_mb >= 0, "--memory-budget must be >= 0 (MiB, 0 = unbounded)");
  return static_cast<std::size_t>(budget_mb) << 20;
}

void apply_replay_args(const Args& args, core::FlareConfig& config) {
  const double rate = args.get_double("replay-faults", 0.0);
  ensure(rate >= 0.0 && rate <= 1.0, "--replay-faults must be in [0, 1]");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int(
      "replay-fault-seed", static_cast<long long>(config.replay_faults.seed)));
  if (rate > 0.0) {
    config.replay_faults = dcsim::ReplayFaultOptions::uniform(rate, seed);
  }
  const long long retries =
      args.get_int("replay-retries", config.replay.max_retries);
  ensure(retries >= 0, "--replay-retries must be >= 0");
  config.replay.max_retries = static_cast<int>(retries);
  config.replay.deadline_seconds =
      args.get_double("replay-deadline", config.replay.deadline_seconds);
  ensure(config.replay.deadline_seconds >= config.replay.nominal_seconds,
         "--replay-deadline must be >= the nominal replay time (" +
             std::to_string(config.replay.nominal_seconds) + " s)");
  config.replay.target_ci_halfwidth_pp =
      args.get_double("replay-ci", config.replay.target_ci_halfwidth_pp);
  config.replay.max_quarantined_mass = args.get_double(
      "max-quarantined-mass", config.replay.max_quarantined_mass);
  ensure(config.replay.max_quarantined_mass >= 0.0 &&
             config.replay.max_quarantined_mass <= 1.0,
         "--max-quarantined-mass must be in [0, 1]");
}

std::optional<dcsim::WorkloadDynamics> dynamics_from(
    const Args& args, const std::optional<dcsim::FleetConfig>& fleet) {
  const std::optional<std::string> spec = args.get_optional("dynamics");
  const std::optional<std::string> dynamics_seed =
      args.get_optional("dynamics-seed");
  const std::optional<std::string> dynamics_start =
      args.get_optional("dynamics-start");
  if (!spec.has_value()) {
    if (dynamics_seed.has_value()) {
      throw ParseError("--dynamics-seed requires --dynamics");
    }
    if (dynamics_start.has_value()) {
      throw ParseError("--dynamics-start requires --dynamics");
    }
    return std::nullopt;
  }

  // Contradiction 1: dynamics without a seed source. The episode schedules
  // (flash/anomaly) must be reproducible across re-runs and streaming
  // windows; silently reusing the implicit default seed would make "the same
  // command" archive different regimes once the default changes.
  if (!args.get_optional("seed").has_value() && !dynamics_seed.has_value()) {
    throw ParseError("--dynamics '" + *spec +
                     "' has no seed source: pass an explicit --seed or "
                     "--dynamics-seed so the episode schedules are "
                     "reproducible");
  }

  dcsim::WorkloadDynamics dynamics = dcsim::parse_dynamics_spec(*spec);
  if (dynamics_seed.has_value()) {
    dynamics.seed =
        static_cast<std::uint64_t>(args.get_int("dynamics-seed", 0));
  } else {
    // Derive a decorrelated schedule stream from the run seed (salted with
    // the layer's default seed) so --seed governs everything yet the arrival
    // RNG and the episode RNG never alias.
    dynamics.seed = util::derive_stream(
        "workload-dynamics", static_cast<std::uint64_t>(args.get_int("seed", 7)),
        dynamics.seed);
  }
  dynamics.start_hour = args.get_double("dynamics-start", 0.0);
  ensure(dynamics.start_hour >= 0.0, "--dynamics-start must be >= 0 (hours)");

  // Contradiction 2: a generator scoped to a shape the run does not have.
  const std::vector<std::string> scopes = dynamics.shape_scopes();
  if (!scopes.empty() && !fleet.has_value()) {
    throw ParseError("--dynamics scopes a generator to shape '" +
                     scopes.front() +
                     "' but no --shapes fleet was given (single-shape runs "
                     "take unscoped generators only)");
  }
  if (fleet.has_value()) {
    const std::vector<std::string> names = fleet->shape_names();
    for (const std::string& scope : scopes) {
      if (std::find(names.begin(), names.end(), scope) == names.end()) {
        std::string known;
        for (const std::string& name : names) {
          known += known.empty() ? name : "|" + name;
        }
        throw ParseError("--dynamics scopes a generator to shape '" + scope +
                         "' which is not in the --shapes fleet (" + known +
                         ")");
      }
    }
  }
  return dynamics;
}

namespace {

/// Strictly parses one --drift-response value; `entry` positions the error.
double drift_response_number(const std::string& entry,
                             const std::string& value) {
  double parsed = 0.0;
  bool ok = !value.empty();
  if (ok) {
    try {
      std::size_t used = 0;
      parsed = std::stod(value, &used);
      ok = used == value.size() && std::isfinite(parsed);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok) {
    throw ParseError("in --drift-response entry '" + entry + "': '" + value +
                     "' is not a number");
  }
  return parsed;
}

/// As above but requires a non-negative integer.
long long drift_response_count(const std::string& entry,
                               const std::string& value) {
  const double parsed = drift_response_number(entry, value);
  if (parsed < 0.0 || parsed != std::floor(parsed) || parsed > 1e9) {
    throw ParseError("in --drift-response entry '" + entry +
                     "': expected a non-negative integer");
  }
  return static_cast<long long>(parsed);
}

}  // namespace

void apply_drift_response_args(const Args& args, core::FlareConfig& config) {
  const std::optional<std::string> spec = args.get_optional("drift-response");
  if (!spec.has_value()) return;
  core::DriftResponseConfig& response = config.drift_response;
  if (*spec == "off") {
    response.enabled = false;
    return;
  }
  response.enabled = true;
  if (spec->empty() || *spec == "on") return;  // bare flag == "on"

  std::size_t pos = 0;
  while (pos <= spec->size()) {
    const std::size_t comma = spec->find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec->size() : comma;
    const std::string entry = spec->substr(pos, end - pos);
    pos = end + 1;
    if (entry == "on") continue;  // allowed as a (redundant) leading entry
    const std::size_t eq = entry.find('=');
    if (entry.empty() || eq == std::string::npos || eq == 0) {
      throw ParseError(
          "in --drift-response entry '" + entry +
          "': expected key=value (keys: ewma|confirm|cooldown|cusum-ref|"
          "cusum|budget|widen|widen-cap|coherence|min-rows|separation, "
          "or on|off)");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "ewma") {
      response.ewma_alpha = drift_response_number(entry, value);
      ensure(response.ewma_alpha > 0.0 && response.ewma_alpha <= 1.0,
             "in --drift-response entry '" + entry +
                 "': ewma must be in (0, 1]");
    } else if (key == "confirm") {
      response.confirm_batches =
          static_cast<int>(drift_response_count(entry, value));
      ensure(response.confirm_batches >= 1,
             "in --drift-response entry '" + entry + "': confirm must be >= 1");
    } else if (key == "cooldown") {
      response.cooldown_batches =
          static_cast<int>(drift_response_count(entry, value));
    } else if (key == "cusum-ref") {
      response.cusum_reference = drift_response_number(entry, value);
      ensure(response.cusum_reference >= 0.0,
             "in --drift-response entry '" + entry +
                 "': cusum-ref must be >= 0");
    } else if (key == "cusum") {
      response.cusum_threshold = drift_response_number(entry, value);
      ensure(response.cusum_threshold > 0.0,
             "in --drift-response entry '" + entry + "': cusum must be > 0");
    } else if (key == "budget") {
      response.staleness_budget_batches = drift_response_number(entry, value);
      ensure(response.staleness_budget_batches > 0.0,
             "in --drift-response entry '" + entry + "': budget must be > 0");
    } else if (key == "widen") {
      response.staleness_widening_pp = drift_response_number(entry, value);
      ensure(response.staleness_widening_pp >= 0.0,
             "in --drift-response entry '" + entry + "': widen must be >= 0");
    } else if (key == "widen-cap") {
      response.staleness_widening_cap_pp = drift_response_number(entry, value);
      ensure(response.staleness_widening_cap_pp >= 0.0,
             "in --drift-response entry '" + entry +
                 "': widen-cap must be >= 0");
    } else if (key == "coherence") {
      response.episode_coherence_ratio = drift_response_number(entry, value);
      ensure(response.episode_coherence_ratio > 0.0 &&
                 response.episode_coherence_ratio < 1.0,
             "in --drift-response entry '" + entry +
                 "': coherence must be in (0, 1)");
    } else if (key == "min-rows") {
      response.episode_min_rows =
          static_cast<std::size_t>(drift_response_count(entry, value));
      ensure(response.episode_min_rows >= 2,
             "in --drift-response entry '" + entry +
                 "': min-rows must be >= 2");
    } else if (key == "separation") {
      response.episode_separation_ratio = drift_response_number(entry, value);
      ensure(response.episode_separation_ratio >= 1.0,
             "in --drift-response entry '" + entry +
                 "': separation must be >= 1");
    } else {
      throw ParseError(
          "in --drift-response entry '" + entry + "': unknown key '" + key +
          "' (ewma|confirm|cooldown|cusum-ref|cusum|budget|widen|widen-cap|"
          "coherence|min-rows|separation)");
    }
  }
}

}  // namespace flare::cli
