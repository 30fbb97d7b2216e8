// Shared option parsers for the `flare` commands: the --machine/--schema
// name maps plus the analyzer and --threads knobs that several commands
// accept with identical spellings, and the fleet setup every pipeline
// command shares.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/analyzer.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/dynamics.hpp"
#include "dcsim/fleet.hpp"
#include "dcsim/machine_config.hpp"

namespace flare::cli {

[[nodiscard]] core::MetricSchema schema_by_name(const std::string& name);

[[nodiscard]] dcsim::MachineConfig machine_by_name(const std::string& name);

/// Shared --shapes knob: a fleet spec like "default:6,small:2,dense:4"
/// (shape[:count], comma-separated). nullopt when the flag is absent.
[[nodiscard]] std::optional<dcsim::FleetConfig> fleet_from(const Args& args);

/// The fleet a pipeline command runs on: the --shapes table when given,
/// else a one-shape fleet of --machine (default "default"). A one-shape
/// ShardedPipeline is bit-identical to a plain FlarePipeline (ctest -L
/// shard), so every command has one data plane.
[[nodiscard]] dcsim::FleetConfig fleet_or_machine(const Args& args);

/// Loads the scenario trace at `path` and fits one ShardedPipeline over it.
/// A row whose shape id names no fleet shape (e.g. a `small` trace run
/// without --machine small) fails with a positioned ParseError.
[[nodiscard]] core::ShardedPipeline fit_fleet(const std::string& path,
                                              const dcsim::FleetConfig& fleet,
                                              const core::FlareConfig& config);

/// Fleet-wide full-datacenter truth for `feature`: each shape's exhaustive
/// evaluator runs its own impact model; `per_shape` (when given) receives
/// the shape truths in fleet order, the return value their weighted fan-in.
[[nodiscard]] double fleet_truth(const core::ShardedPipeline& pipeline,
                                 const core::Feature& feature,
                                 std::vector<double>* per_shape = nullptr);

/// Shared --threads knob: 1 = serial (default), 0 = all hardware threads.
[[nodiscard]] std::size_t threads_from(const Args& args);

/// Shared analyzer knobs: --clusters/--auto-k, --quality-curve, --ward,
/// --no-whiten, --no-refine, --kmeans-mode exact|minibatch|auto, --threads.
[[nodiscard]] core::AnalyzerConfig analyzer_config_from(const Args& args);

/// Shared --memory-budget knob (MiB; 0 = unbounded), returned in bytes.
[[nodiscard]] std::size_t memory_budget_from(const Args& args);

/// Shared replay-plane knobs for commands that reach step 4:
/// --replay-faults R (all five testbed fault classes at rate R),
/// --replay-fault-seed S, --replay-retries N, --replay-deadline D (seconds),
/// --replay-ci W (target CI half-width, pp), --max-quarantined-mass M.
/// Fills config.replay / config.replay_faults; with none of the flags given
/// the config keeps its defaults and the clean path stays bit-identical.
void apply_replay_args(const Args& args, core::FlareConfig& config);

/// Shared --dynamics knob: parses the generator spec (dcsim dynamics.hpp)
/// and cross-validates it against the other flags. Rejected with positioned
/// ParseErrors: `--dynamics` without a seed source (an explicit --seed or
/// --dynamics-seed — the episode schedules must be reproducible), a
/// shape-scoped generator without a --shapes fleet, and a scope naming a
/// shape the fleet does not contain. Also consumes --dynamics-seed (schedule
/// RNG; default derives a decorrelated substream from --seed) and
/// --dynamics-start (absolute start hour for streaming batch windows).
/// nullopt when --dynamics is absent — the stationary path, bit-identical.
[[nodiscard]] std::optional<dcsim::WorkloadDynamics> dynamics_from(
    const Args& args, const std::optional<dcsim::FleetConfig>& fleet);

/// Shared --drift-response knob (ingest/serve): "on", "off", or a
/// comma-separated key=value list (implies on) with keys
/// ewma|confirm|cooldown|cusum-ref|cusum|budget|widen|widen-cap|coherence|
/// min-rows mapped onto core::DriftResponseConfig. Malformed entries throw
/// ParseError naming the offending entry. Absent flag leaves the response
/// disabled (the historical ingest path, bit-identical).
void apply_drift_response_args(const Args& args, core::FlareConfig& config);

}  // namespace flare::cli
