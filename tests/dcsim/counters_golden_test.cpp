// Bit-identity pin for counter synthesis. The constant below was captured by
// hashing the rows of the name-keyed synthesizer (one string map per sample)
// before the index-addressed CounterPlan replaced it: every value, every RNG
// draw and its order must survive that rewrite untouched.
#include "dcsim/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dcsim/fleet.hpp"
#include "util/hash.hpp"

namespace flare::dcsim {
namespace {

/// Every other standard metric, back to front: a schema whose order and
/// coverage differ from the synthesizer's own layout.
metrics::MetricCatalog reordered_subset() {
  const std::vector<metrics::MetricInfo>& all =
      metrics::MetricCatalog::standard_with_job_mix().metrics();
  std::vector<metrics::MetricInfo> picked;
  for (std::size_t i = all.size(); i-- > 0;) {
    if (i % 2 != 0) continue;
    metrics::MetricInfo m = all[i];
    m.index = picked.size();
    picked.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(picked));
}

std::vector<CounterOptions> noise_modes() {
  std::vector<CounterOptions> modes;
  for (const int subgroups : {1, 14}) {
    CounterOptions on;
    on.subgroup_count = subgroups;
    CounterOptions off = on;
    off.enable_noise = false;
    CounterOptions jitter_only = on;  // family + subgroup latents, no per-read noise
    jitter_only.measurement_noise_sigma = 0.0;
    modes.insert(modes.end(), {on, off, jitter_only});
  }
  return modes;
}

TEST(CounterSynthesisGolden, RowsAreBitIdenticalToNameKeyedCapture) {
  // ~200 scenarios over three shapes, each evaluated on its own noise stream.
  FleetConfig fleet;
  for (const char* shape : {"default", "small", "dense"}) {
    fleet.shapes.push_back({machine_shape_by_name(shape), 1});
  }
  SubmissionConfig sub;
  sub.target_distinct_scenarios = 67;
  const FleetScenarioSet population = generate_fleet_scenario_set(sub, fleet);
  const InterferenceModel model(default_job_catalog());
  std::vector<ScenarioPerformance> perfs;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    for (const ColocationScenario& scenario : population.per_shape[s].scenarios) {
      perfs.push_back(
          model.evaluate(fleet.shapes[s].machine, scenario.mix, perfs.size()));
    }
  }
  ASSERT_GE(perfs.size(), 190u);

  const metrics::MetricCatalog subset = reordered_subset();
  const std::vector<const metrics::MetricCatalog*> schemas = {
      &metrics::MetricCatalog::standard(),
      &metrics::MetricCatalog::standard_with_job_mix(), &subset};
  const std::vector<CounterOptions> modes = noise_modes();

  std::uint64_t h = util::kFnvOffsetBasis;
  std::size_t rows = 0;
  for (const metrics::MetricCatalog* schema : schemas) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      for (std::size_t p = 0; p < perfs.size(); ++p) {
        const std::vector<double> row = synthesize_counters(
            perfs[p], default_job_catalog(), *schema, modes[m], 31 * p + m);
        ASSERT_EQ(row.size(), schema->size());
        h = util::fnv1a(
            std::string_view(reinterpret_cast<const char*>(row.data()),
                             row.size() * sizeof(double)),
            h);
        ++rows;
      }
    }
  }
  EXPECT_EQ(rows, schemas.size() * modes.size() * perfs.size());
  EXPECT_EQ(h, 0x65ac4d1a11f1bc70ull);
}

TEST(CounterSynthesisGolden, UnknownSchemaMetricIsRejectedByName) {
  std::vector<metrics::MetricInfo> metrics = metrics::MetricCatalog::standard().metrics();
  metrics::MetricInfo bogus = metrics.back();
  bogus.index = metrics.size();
  bogus.name = "Machine.NoSuchCounter";
  bogus.base_name = "NoSuchCounter";
  metrics.push_back(bogus);
  const metrics::MetricCatalog schema(std::move(metrics));
  JobMix mix;
  mix.add(JobType::kDataCaching, 2);
  const ScenarioPerformance perf =
      InterferenceModel(default_job_catalog()).evaluate(default_machine(), mix);
  try {
    (void)synthesize_counters(perf, default_job_catalog(), schema);
    FAIL() << "an unknown schema metric must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("schema metric not produced"), std::string::npos) << what;
    EXPECT_NE(what.find("Machine.NoSuchCounter"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace flare::dcsim
