#include "core/sharded_pipeline.hpp"

#include <exception>
#include <utility>

#include "util/error.hpp"

namespace flare::core {
namespace {

/// Runs `body(i)` for every shard index, on the shard pool when present.
/// Exceptions thrown inside a pool worker are captured per shard and the
/// first (lowest index) rethrown after the barrier — same observable
/// behaviour as the serial loop up to which sibling shards completed.
template <typename Body>
void for_each_shard(util::ThreadPool* pool, std::size_t count, const Body& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  util::parallel_for(*pool, count, [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

ShardedPipeline::ShardedPipeline(ShardedConfig config,
                                 const dcsim::JobCatalog& catalog)
    : config_(std::move(config)) {
  ensure(!config_.fleet.shapes.empty(),
         "ShardedPipeline: the fleet needs at least one shape");
  for (std::size_t i = 0; i < config_.fleet.shapes.size(); ++i) {
    ensure(config_.fleet.shapes[i].num_machines > 0,
           "ShardedPipeline: every shape needs a positive machine count");
    ensure(!config_.fleet.shapes[i].machine.name.empty(),
           "ShardedPipeline: every shape needs a machine name (the shape id)");
    ensure(!config_.fleet.index_of(config_.fleet.shapes[i].machine.name)
                .has_value() ||
               *config_.fleet.index_of(config_.fleet.shapes[i].machine.name) == i,
           "ShardedPipeline: duplicate shape name in the fleet table");
  }
  if (config_.shard_threads != 1) {
    shard_pool_ = std::make_unique<util::ThreadPool>(config_.shard_threads);
  }
  shards_.reserve(config_.fleet.shapes.size());
  for (std::size_t i = 0; i < config_.fleet.shapes.size(); ++i) {
    FlareConfig shard_config = config_.base;
    shard_config.machine = config_.fleet.shapes[i].machine;
    // Shard-level and stage-level parallelism never nest: when shards run in
    // parallel, each shard computes inline on its worker slot.
    if (shard_pool_ != nullptr) shard_config.threads = 1;
    shards_.push_back(std::make_unique<FlarePipeline>(shard_config, catalog));
  }
}

void ShardedPipeline::fit(const dcsim::FleetScenarioSet& fleet_set) {
  ensure(fleet_set.per_shape.size() == shards_.size(),
         "ShardedPipeline::fit: one scenario set per fleet shape, in table "
         "order");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const dcsim::ScenarioSet& set = fleet_set.per_shape[i];
    ensure(!set.scenarios.empty(),
           "ShardedPipeline::fit: shape '" +
               config_.fleet.shapes[i].machine.name +
               "' has no scenarios — every shard needs a population to fit");
    ensure(set.machine_type == config_.fleet.shapes[i].machine.name,
           "ShardedPipeline::fit: per-shape set " + std::to_string(i) +
               " is tagged '" + set.machine_type + "' but the fleet table " +
               "expects '" + config_.fleet.shapes[i].machine.name + "'");
  }
  for_each_shard(shard_pool_.get(), shards_.size(),
                 [&](std::size_t i) { shards_[i]->fit(fleet_set.per_shape[i]); });
}

void ShardedPipeline::fit(const dcsim::ScenarioSet& mixed) {
  fit(dcsim::split_by_shape(mixed, config_.fleet));
}

FleetIngestReport ShardedPipeline::ingest(const dcsim::ScenarioSet& mixed_batch,
                                          RefitPolicy policy) {
  ensure(fitted(), "ShardedPipeline::ingest: call fit() first");
  ensure(!mixed_batch.scenarios.empty(), "ShardedPipeline::ingest: empty batch");
  const dcsim::FleetScenarioSet routed =
      dcsim::split_by_shape(mixed_batch, config_.fleet);

  FleetIngestReport report;
  report.per_shape.resize(shards_.size());
  report.appended = mixed_batch.scenarios.size();
  // Only shards the batch routed rows to run at all: an untouched shard's
  // drift gate never fires, its analysis never moves (ctest -L shard pins
  // this isolation).
  for_each_shard(shard_pool_.get(), shards_.size(), [&](std::size_t i) {
    if (routed.per_shape[i].scenarios.empty()) return;
    report.per_shape[i] = shards_[i]->ingest(routed.per_shape[i], policy);
  });
  return report;
}

FleetEstimate ShardedPipeline::evaluate(const Feature& feature) {
  ensure(fitted(), "ShardedPipeline::evaluate: call fit() first");
  const std::vector<double> w = weights();
  std::vector<ShardFeatureEstimate> shards;
  shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards.push_back({config_.fleet.shapes[i].machine.name, w[i],
                      shards_[i]->evaluate(feature)});
  }
  return fan_in(std::move(shards));
}

ValidatedFleetEstimate ShardedPipeline::evaluate_with_validation(
    const Feature& feature) {
  ensure(fitted(),
         "ShardedPipeline::evaluate_with_validation: call fit() first");
  const std::vector<double> w = weights();
  std::vector<ShardValidatedEstimate> shards;
  shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards.push_back({config_.fleet.shapes[i].machine.name, w[i],
                      shards_[i]->evaluate_with_validation(feature)});
  }
  return fan_in_validated(std::move(shards));
}

FleetPerJobEstimate ShardedPipeline::evaluate_per_job(const Feature& feature,
                                                      dcsim::JobType job) {
  ensure(fitted(), "ShardedPipeline::evaluate_per_job: call fit() first");
  const std::vector<double> w = weights();
  std::vector<ShardPerJobEstimate> shards;
  shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardPerJobEstimate entry;
    entry.shape = config_.fleet.shapes[i].machine.name;
    entry.weight = w[i];
    // Cross-shard fallback: a shape whose population never ran the job
    // contributes nothing; fan_in_per_job renormalises the covering shapes.
    if (shard_has_job(i, job)) {
      entry.estimate = shards_[i]->evaluate_per_job(feature, job);
    }
    shards.push_back(std::move(entry));
  }
  return fan_in_per_job(std::move(shards));
}

bool ShardedPipeline::shard_has_job(std::size_t index,
                                    dcsim::JobType job) const {
  for (const dcsim::ColocationScenario& s :
       shards_[index]->scenario_set().scenarios) {
    if (s.mix.count(job) > 0) return true;
  }
  return false;
}

bool ShardedPipeline::has_job(dcsim::JobType job) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shard_has_job(i, job)) return true;
  }
  return false;
}

bool ShardedPipeline::fitted() const {
  if (shards_.empty()) return false;
  for (const auto& shard : shards_) {
    if (!shard->fitted()) return false;
  }
  return true;
}

const FlarePipeline& ShardedPipeline::shard(std::size_t index) const {
  ensure(index < shards_.size(), "ShardedPipeline::shard: index out of range");
  return *shards_[index];
}

std::vector<double> ShardedPipeline::weights() const {
  return config_.fleet.population_weights();
}

std::size_t ShardedPipeline::scenario_replays() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->scenario_replays();
  return total;
}

}  // namespace flare::core
