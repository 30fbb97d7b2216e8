#include "core/profiler.hpp"

#include <cmath>
#include <limits>
#include <memory>

#include "dcsim/dynamics.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::core {
namespace {

/// How a (possibly stddev-enriched, §4.1) schema maps onto the base metrics
/// the counter synthesizer produces.
struct SchemaPlan {
  metrics::MetricCatalog base_catalog;      ///< non-derived metrics, dense
  dcsim::CounterPlan counters;              ///< base_catalog's synthesis slots
  std::vector<std::size_t> base_to_schema;  ///< base column -> schema column
  /// (schema column of the _Std metric, base column it derives from)
  std::vector<std::pair<std::size_t, std::size_t>> stddev_columns;
};

SchemaPlan plan_for(const metrics::MetricCatalog& schema) {
  std::vector<metrics::MetricInfo> base_metrics;
  std::vector<std::size_t> base_to_schema;
  for (const metrics::MetricInfo& m : schema.metrics()) {
    if (metrics::MetricCatalog::is_stddev_column(m)) continue;
    metrics::MetricInfo copy = m;
    copy.index = base_metrics.size();
    base_to_schema.push_back(m.index);
    base_metrics.push_back(std::move(copy));
  }
  metrics::MetricCatalog base_catalog(std::move(base_metrics));
  dcsim::CounterPlan counters(base_catalog);
  SchemaPlan plan{std::move(base_catalog), std::move(counters),
                  std::move(base_to_schema), {}};
  for (const metrics::MetricInfo& m : schema.metrics()) {
    if (!metrics::MetricCatalog::is_stddev_column(m)) continue;
    const std::string source = m.name.substr(0, m.name.size() - 4);  // strip _Std
    const auto base_index = plan.base_catalog.index_of(source);
    ensure(base_index.has_value(),
           "Profiler: stddev column '" + m.name + "' has no source metric");
    plan.stddev_columns.emplace_back(m.index, *base_index);
  }
  return plan;
}

bool valid_reading(double v, double max_abs) {
  return std::isfinite(v) && std::abs(v) <= max_abs;
}

/// One periodic read: evaluate the model and synthesize counters on the
/// attempt's noise stream, then overlay injected faults.
std::vector<double> read_sample(const dcsim::InterferenceModel& model,
                                const ProfilerConfig& config,
                                const dcsim::CounterFaultModel& faults,
                                const dcsim::ColocationScenario& scenario,
                                const dcsim::MachineConfig& machine,
                                const SchemaPlan& plan,
                                const std::vector<double>& last_observed,
                                int sample_index, int attempt) {
  // Attempt 0 reuses the clean profiler's stream so faults-off stays
  // bit-identical; retries fork a fresh substream off the same base.
  const std::uint64_t base = util::hash_mix(
      config.noise_stream,
      scenario.id * 1000 + static_cast<std::uint64_t>(sample_index));
  const std::uint64_t stream =
      attempt == 0
          ? base
          : util::hash_mix(base,
                           0xFA17A000ull + static_cast<std::uint64_t>(attempt));
  const dcsim::ScenarioPerformance perf =
      model.evaluate(machine, scenario.mix, stream);
  std::vector<double> sample = dcsim::synthesize_counters(
      perf, model.catalog(), plan.counters, config.counters, stream);
  // Dynamics tags (rolling-upgrade version shift, anomaly-episode
  // corruption) distort the synthesized counters deterministically; untagged
  // rows skip the overlay entirely and stay bit-identical.
  if (scenario.dynamic_tagged()) {
    dcsim::apply_dynamics_overlay(sample, plan.base_catalog, scenario);
  }
  if (faults.active()) {
    faults.corrupt(sample, last_observed, scenario.mix.key(), sample_index,
                   attempt);
  }
  return sample;
}

metrics::MetricRow profile_one(const dcsim::InterferenceModel& model,
                               const ProfilerConfig& config,
                               const dcsim::CounterFaultModel& faults,
                               const dcsim::ColocationScenario& scenario,
                               const dcsim::MachineConfig& machine,
                               const metrics::MetricCatalog& schema,
                               const SchemaPlan& plan, RowHealth& health) {
  metrics::MetricRow row;
  row.scenario_id = scenario.id;
  row.scenario_key = scenario.mix.key();
  row.observation_weight = scenario.observation_weight;
  row.values.assign(schema.size(), 0.0);
  health = RowHealth{};
  health.imputed_metrics.assign(schema.size(), false);

  if (!faults.active()) {
    // Clean fast path — byte-for-byte the original profiler loop: per-metric
    // running means for the base columns, stddevs for the §4.1
    // temporal-enrichment columns.
    std::vector<stats::RunningStats> per_metric(plan.base_catalog.size());
    for (int s = 0; s < config.samples_per_scenario; ++s) {
      const std::uint64_t stream = util::hash_mix(
          config.noise_stream, scenario.id * 1000 + static_cast<std::uint64_t>(s));
      const dcsim::ScenarioPerformance perf =
          model.evaluate(machine, scenario.mix, stream);
      std::vector<double> sample = dcsim::synthesize_counters(
          perf, model.catalog(), plan.counters, config.counters, stream);
      if (scenario.dynamic_tagged()) {
        dcsim::apply_dynamics_overlay(sample, plan.base_catalog, scenario);
      }
      for (std::size_t i = 0; i < sample.size(); ++i) per_metric[i].add(sample[i]);
    }
    health.valid_samples = config.samples_per_scenario;
    for (std::size_t i = 0; i < per_metric.size(); ++i) {
      row.values[plan.base_to_schema[i]] = per_metric[i].mean();
    }
    for (const auto& [schema_col, base_col] : plan.stddev_columns) {
      row.values[schema_col] = per_metric[base_col].stddev();
    }
    return row;
  }

  const std::string key = scenario.mix.key();
  if (faults.lose_row(key)) {
    // The machine never reported: no sample, no retry, every cell imputed.
    health.row_lost = true;
    health.dropped_samples = config.samples_per_scenario;
    health.imputed_metrics.assign(schema.size(), true);
    row.values.assign(schema.size(), std::numeric_limits<double>::quiet_NaN());
    return row;
  }

  // Fault streams reference "the previous reading" for stuck-at injection;
  // track the last finite observation per base metric across samples.
  std::vector<double> last_observed;
  // The faulty path collects every accepted reading per metric and aggregates
  // through a Hampel gate below: silent fault classes (stuck-at, multiplexing
  // scale error) pass the finiteness check and would drag a mean arbitrarily
  // far, so readings more than 5 robust sigmas (1.4826·MAD) from the median
  // are rejected before the classical mean/stddev. Multiplex glitches sit
  // tens of measurement-noise sigmas out, so the gate removes them while an
  // untouched metric keeps every reading — and then the aggregate matches the
  // clean profiler bit for bit, keeping degraded rows at their clean
  // positions so refinement and clustering stay stable.
  std::vector<std::vector<double>> readings(plan.base_catalog.size());
  for (int s = 0; s < config.samples_per_scenario; ++s) {
    // Per-metric retry merge: attempt 0 shares the clean profiler's noise
    // stream, and a retry only fills in metrics whose readings came back
    // invalid — every counter untouched by faults keeps its clean-path bits.
    // Re-reading the whole period because one counter glitched would replace
    // all 100+ readings with a fresh noise draw, decorrelating duplicate
    // metric columns and destabilising refinement downstream.
    std::vector<double> merged(plan.base_catalog.size(),
                               std::numeric_limits<double>::quiet_NaN());
    std::vector<char> have(plan.base_catalog.size(), 0);
    std::size_t have_count = 0;
    bool observed = false;
    bool retried = false;
    for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
      if (attempt > 0) retried = true;
      if (faults.drop_sample(key, s, attempt)) continue;
      const std::vector<double> sample =
          read_sample(model, config, faults, scenario, machine, plan,
                      last_observed, s, attempt);
      observed = true;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        if (have[i] || !valid_reading(sample[i], config.max_abs_reading)) {
          continue;
        }
        merged[i] = sample[i];
        have[i] = 1;
        ++have_count;
      }
      if (have_count == merged.size()) break;
    }

    if (!observed || have_count == 0) {
      ++health.dropped_samples;
      continue;
    }
    if (retried) ++health.retried_samples;
    if (have_count == merged.size()) {
      ++health.valid_samples;
    } else {
      ++health.partial_samples;
    }
    if (last_observed.empty()) {
      last_observed.assign(merged.size(),
                           std::numeric_limits<double>::quiet_NaN());
    }
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (!have[i]) continue;
      readings[i].push_back(merged[i]);
      last_observed[i] = merged[i];
    }
  }

  // Hampel gate per metric, then classical moments over the survivors. If
  // MAD is zero, at least half the readings equal the median exactly, so the
  // zero-width gate still keeps those and the aggregate stays well-defined.
  std::vector<stats::RunningStats> per_metric(plan.base_catalog.size());
  std::vector<double> deviations;
  for (std::size_t i = 0; i < readings.size(); ++i) {
    const std::size_t schema_col = plan.base_to_schema[i];
    if (readings[i].empty()) {
      row.values[schema_col] = std::numeric_limits<double>::quiet_NaN();
      health.imputed_metrics[schema_col] = true;
      continue;
    }
    const double center = stats::median(readings[i]);
    deviations.clear();
    deviations.reserve(readings[i].size());
    for (const double v : readings[i]) deviations.push_back(std::abs(v - center));
    const double gate = 5.0 * 1.4826 * stats::median(deviations);
    for (const double v : readings[i]) {
      if (std::abs(v - center) <= gate) per_metric[i].add(v);
    }
    row.values[schema_col] = per_metric[i].mean();
  }
  for (const auto& [schema_col, base_col] : plan.stddev_columns) {
    if (readings[base_col].empty()) {
      row.values[schema_col] = std::numeric_limits<double>::quiet_NaN();
      health.imputed_metrics[schema_col] = true;
    } else {
      row.values[schema_col] = per_metric[base_col].stddev();
    }
  }
  return row;
}

}  // namespace

Profiler::Profiler(const dcsim::InterferenceModel& model, ProfilerConfig config)
    : model_(&model), config_(config), fault_model_(config.faults) {
  ensure(config_.samples_per_scenario >= 1,
         "Profiler: samples_per_scenario must be >= 1");
  ensure(config_.max_retries >= 0, "Profiler: max_retries must be >= 0");
  ensure(config_.sample_quorum >= 1 &&
             config_.sample_quorum <= config_.samples_per_scenario,
         "Profiler: sample_quorum must be in [1, samples_per_scenario]");
  ensure(config_.max_abs_reading > 0.0,
         "Profiler: max_abs_reading must be positive");
}

metrics::MetricDatabase Profiler::profile(const dcsim::ScenarioSet& set,
                                          const dcsim::MachineConfig& machine,
                                          const metrics::MetricCatalog& schema,
                                          util::ThreadPool* shared_pool) const {
  return profile_with_health(set, machine, schema, shared_pool).database;
}

ProfileReport Profiler::profile_with_health(const dcsim::ScenarioSet& set,
                                            const dcsim::MachineConfig& machine,
                                            const metrics::MetricCatalog& schema,
                                            util::ThreadPool* shared_pool) const {
  ensure(!set.scenarios.empty(), "Profiler::profile: empty scenario set");
  const SchemaPlan plan = plan_for(schema);
  ProfileReport report{metrics::MetricDatabase(schema), {}};
  std::unique_ptr<util::ThreadPool> owned;
  if (shared_pool == nullptr && config_.threads != 1) {
    owned = std::make_unique<util::ThreadPool>(config_.threads);
    shared_pool = owned.get();
  }
  // Rows are computed into fixed slots (pure functions of the scenario), then
  // appended in order — bit-identical to the sequential path.
  std::vector<metrics::MetricRow> rows(set.scenarios.size());
  report.health.resize(set.scenarios.size());
  util::maybe_parallel_for(shared_pool, set.scenarios.size(), [&](std::size_t i) {
    rows[i] = profile_one(*model_, config_, fault_model_, set.scenarios[i],
                          machine, schema, plan, report.health[i]);
  });
  report.database.reserve(rows.size());
  for (metrics::MetricRow& row : rows) report.database.add_row(std::move(row));
  return report;
}

}  // namespace flare::core
