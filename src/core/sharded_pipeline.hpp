// ShardedPipeline — the sharded, shape-aware data plane (paper §5.5,
// DESIGN.md §13).
//
// A heterogeneous fleet mixes machine shapes whose microarchitectural axes
// (LLC, bandwidth, SMT, clocks) differ enough that pooling their scenarios
// into one PCA/K-means space blurs exactly the structure the clusters are
// meant to separate. The sharded plane keeps one complete FlarePipeline per
// shape — its own profiler, drift gate, incremental PCA, quarantine and
// replay ledgers, and its own analysis.
//
// Routing: every scenario row carries its shape id (the machine name the
// dcsim scheduler stamped on it); fit and ingest split their input by that
// id and hand each shard exactly its own rows. A row naming an unknown shape
// is a hard ParseError — silently coercing it into another shape's space is
// the bug this refactor exists to prevent.
//
// Estimates fan back in with shape-population weights (core/fleet_estimator
// .hpp): impact = Σ_s w_s · impact_s, ledger mass conserved to 1.
//
// Behaviour preservation: a one-shape ShardedPipeline is bit-identical to a
// plain FlarePipeline over the same rows — a shard is a FlarePipeline with
// its shape's machine, on the same code path (tested under ctest -L shard).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/fleet_estimator.hpp"
#include "core/pipeline.hpp"
#include "dcsim/fleet.hpp"

namespace flare::core {

struct ShardedConfig {
  /// Per-shard template: every shard copies this and overrides `machine`
  /// with its shape.
  FlareConfig base;
  /// The shape-population table; also the source of the fan-in weights.
  dcsim::FleetConfig fleet;
  /// Worker threads for the shard-level pool: 1 = shards fit/refit serially
  /// (default), 0 = one per hardware thread. When != 1 each shard is forced
  /// to run single-threaded inside its slot (nested data parallelism is
  /// forbidden — DESIGN.md "Performance & threading model"); results are
  /// bit-identical for every value either way.
  std::size_t shard_threads = 1;
};

/// What one ingest batch did across the fleet: per-shape reports in
/// FleetConfig order, nullopt for shards the batch routed no rows to (their
/// pipelines were not touched — drift in shape A never refits shape B).
struct FleetIngestReport {
  std::vector<std::optional<IngestReport>> per_shape;
  std::size_t appended = 0;  ///< rows routed and appended, whole batch

  [[nodiscard]] std::size_t shards_touched() const {
    std::size_t n = 0;
    for (const auto& r : per_shape) n += r.has_value() ? 1 : 0;
    return n;
  }
};

class ShardedPipeline {
 public:
  explicit ShardedPipeline(ShardedConfig config,
                           const dcsim::JobCatalog& catalog =
                               dcsim::default_job_catalog());

  /// Fits every shard on its shape's population (per_shape must align with
  /// the fleet's shape table). Shards fit independently — in parallel when
  /// shard_threads != 1.
  void fit(const dcsim::FleetScenarioSet& fleet_set);

  /// Convenience: splits a mixed shape-tagged set by shape id first.
  /// Throws ParseError on rows with absent/unknown shape ids.
  void fit(const dcsim::ScenarioSet& mixed);

  /// Routes a mixed batch to its shards by shape id; each touched shard runs
  /// its own drift classification and takes its own action. Untouched
  /// shards' reports are nullopt. Throws ParseError on unknown shape ids.
  FleetIngestReport ingest(const dcsim::ScenarioSet& mixed_batch,
                           RefitPolicy policy = RefitPolicy::kAuto);

  /// Fleet-wide feature impact: per-shard estimates fanned in with
  /// population weights (see core/fleet_estimator.hpp).
  [[nodiscard]] FleetEstimate evaluate(const Feature& feature);

  /// Fleet-wide estimate with a combined uncertainty band.
  [[nodiscard]] ValidatedFleetEstimate evaluate_with_validation(
      const Feature& feature);

  /// Fleet-wide per-job impact. Shards whose population never ran the job
  /// are skipped and the remaining weights renormalised; throws ReplayError
  /// when no shape ran it.
  [[nodiscard]] FleetPerJobEstimate evaluate_per_job(const Feature& feature,
                                                     dcsim::JobType job);

  /// True if any shape's fitted population ran `job` — i.e. whether
  /// evaluate_per_job has a population to speak for.
  [[nodiscard]] bool has_job(dcsim::JobType job) const;

  [[nodiscard]] bool fitted() const;
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const FlarePipeline& shard(std::size_t index) const;
  [[nodiscard]] const dcsim::FleetConfig& fleet() const { return config_.fleet; }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }
  /// Fan-in weights (machine-count shares, FleetConfig order).
  [[nodiscard]] std::vector<double> weights() const;
  /// Σ distinct scenario replays across shards (evaluation-cost ledger).
  [[nodiscard]] std::size_t scenario_replays() const;

 private:
  /// True if shard `index`'s fitted population contains `job`.
  [[nodiscard]] bool shard_has_job(std::size_t index, dcsim::JobType job) const;

  ShardedConfig config_;
  std::vector<std::unique_ptr<FlarePipeline>> shards_;  ///< fleet order
  std::unique_ptr<util::ThreadPool> shard_pool_;  ///< non-null when != 1
};

}  // namespace flare::core
