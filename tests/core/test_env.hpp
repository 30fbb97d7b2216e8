// Shared small test environment for core-module tests: one simulated
// datacenter and one fitted pipeline, built once per test binary (the
// generation + fit costs ~100 ms; sharing keeps the suite fast).
#pragma once

#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "dcsim/submission.hpp"

namespace flare::core::testing {

inline const dcsim::ScenarioSet& small_scenario_set() {
  static const dcsim::ScenarioSet kSet = [] {
    dcsim::SubmissionConfig config;
    config.target_distinct_scenarios = 150;
    return dcsim::generate_scenario_set(config, dcsim::default_machine());
  }();
  return kSet;
}

/// Profiles one scenario through the batch path (one averaged row).
inline metrics::MetricRow profile_one(const Profiler& profiler,
                                      const dcsim::ColocationScenario& scenario,
                                      const dcsim::MachineConfig& machine,
                                      const metrics::MetricCatalog& schema) {
  dcsim::ScenarioSet set;
  set.scenarios.push_back(scenario);
  return profiler.profile(set, machine, schema).row(0);
}

inline FlareConfig small_flare_config() {
  FlareConfig config;
  config.analyzer.fixed_clusters = 8;
  config.analyzer.compute_quality_curve = false;
  return config;
}

inline FlarePipeline& fitted_pipeline() {
  static FlarePipeline* kPipeline = [] {
    auto* p = new FlarePipeline(small_flare_config());
    p->fit(small_scenario_set());
    return p;
  }();
  return *kPipeline;
}

}  // namespace flare::core::testing
