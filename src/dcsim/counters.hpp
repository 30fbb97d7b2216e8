// Raw-counter synthesis: turns an evaluated scenario into the two-level raw
// metric row of the standard catalog — the simulated equivalent of the
// Profiler daemon reading perf counters, top-down events, and /proc.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "dcsim/interference_model.hpp"
#include "metrics/metric_catalog.hpp"

namespace flare::dcsim {

struct CounterOptions {
  /// Per-metric multiplicative measurement noise (σ of log); models sensor
  /// and sampling jitter on top of the performance model's own noise.
  double measurement_noise_sigma = 0.025;
  /// Per-scenario, per-metric-family jitter (σ of log): workload phases and
  /// input dependence move whole metric families (branching, i-cache, TLB,
  /// I/O, ...) together but independently of each other. This is what gives
  /// real monitoring data its many weakly-coupled dimensions — without it a
  /// handful of PCs would explain everything, which no datacenter shows.
  double family_jitter_sigma = 0.08;
  /// Finer-grained latent phase factors: small groups of related counters
  /// (hash-assigned) share a per-scenario factor below the family level —
  /// e.g. TLB behaviour moves with the page-walk phase, not with every cache
  /// counter. Gives the PCA spectrum its realistic long middle tail.
  double subgroup_jitter_sigma = 0.05;
  int subgroup_count = 14;
  bool enable_noise = true;
};

/// Where each metric of one schema sits among the values the synthesizer
/// computes, resolved once per schema so the per-sample path addresses them
/// by position instead of looking names up.
class CounterPlan {
 public:
  /// One schema metric, in schema order.
  struct Entry {
    std::size_t slot = 0;        ///< position among the synthesized values
    std::uint64_t base_hash = 0; ///< fnv1a(base_name): picks the subgroup latent
    std::uint8_t level = 0;      ///< family-jitter row: 0 Machine, 1 HP
    std::uint8_t category = 0;   ///< family-jitter column (MetricCategory)
    bool exact = false;          ///< occupancy count: read losslessly, no noise
  };

  /// Throws std::invalid_argument naming the first schema metric the
  /// synthesizer does not produce.
  explicit CounterPlan(const metrics::MetricCatalog& schema);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Synthesises the schema-ordered raw metric vector for one evaluated
/// scenario. Deterministic per (performance, noise_stream).
[[nodiscard]] std::vector<double> synthesize_counters(
    const ScenarioPerformance& performance, const JobCatalog& catalog,
    const CounterPlan& plan, CounterOptions options = {},
    std::uint64_t noise_stream = 0);

/// Same, resolving `schema` on the spot — callers that synthesize many rows
/// of one schema build the CounterPlan once instead.
[[nodiscard]] std::vector<double> synthesize_counters(
    const ScenarioPerformance& performance, const JobCatalog& catalog,
    const metrics::MetricCatalog& schema, CounterOptions options = {},
    std::uint64_t noise_stream = 0);

/// Deterministic counter-fault injection knobs. All rates are per-draw
/// probabilities in [0, 1]; everything is off by default so the clean
/// profiling path (and the AnalyzerGolden hash) is untouched.
struct FaultOptions {
  bool enabled = false;
  /// Per metric reading: replace the value with NaN or ±Inf (glitched MSR
  /// read, overflowed fixed counter).
  double nan_rate = 0.0;
  /// Per metric reading: report the previous sample's value again (counter
  /// stuck / not re-armed). The reading stays finite, so this class is only
  /// caught statistically — it models silent skew, not hard failure.
  double stuck_rate = 0.0;
  /// Per metric reading: event-multiplexing extrapolation error — the value
  /// is scaled by a log-uniform factor with log-stddev `multiplex_sigma`
  /// (uniform rather than normal so the per-metric draw count never depends
  /// on fault outcomes, keeping streams layout-stable).
  double multiplex_rate = 0.0;
  double multiplex_sigma = 0.35;
  /// Per sample: the whole sample never arrives (daemon descheduled, ring
  /// buffer overrun). The profiler retries with a fresh substream.
  double sample_drop_rate = 0.0;
  /// Per scenario row: the machine never reports (agent crash, network
  /// partition). No retry can help; the row is quarantined.
  double row_loss_rate = 0.0;
  /// Fault streams are seeded independently of the noise streams so the same
  /// fault pattern can be replayed over different measurement noise.
  std::uint64_t seed = 0xFA017ull;

  /// All fault classes at the same `rate` (multiplex sigma kept at default).
  [[nodiscard]] static FaultOptions uniform(double rate,
                                            std::uint64_t seed = 0xFA017ull);
};

/// Seeded fault injector layered over `synthesize_counters` output. Every
/// decision is a pure function of (options.seed, scenario key, sample index,
/// retry attempt, metric index) — mirroring the noise-stream discipline — so
/// fault patterns are bit-reproducible across runs and thread schedules.
class CounterFaultModel {
 public:
  CounterFaultModel() = default;
  explicit CounterFaultModel(FaultOptions options);

  /// False when injection is disabled or every rate is zero; callers skip all
  /// fault bookkeeping in that case, keeping the clean path bit-identical.
  [[nodiscard]] bool active() const { return active_; }

  /// Whole-row loss: the scenario's machine never reports this round.
  [[nodiscard]] bool lose_row(std::string_view scenario_key) const;

  /// Whole-sample drop for a given retry attempt (attempt 0 = first try).
  [[nodiscard]] bool drop_sample(std::string_view scenario_key,
                                 int sample_index, int attempt) const;

  /// Applies per-metric glitches in place. `last_observed` is the most recent
  /// prior reading per metric (empty on the first sample — stuck-at faults
  /// need something to stick to and are skipped without it).
  void corrupt(std::vector<double>& sample,
               const std::vector<double>& last_observed,
               std::string_view scenario_key, int sample_index,
               int attempt) const;

  [[nodiscard]] const FaultOptions& options() const { return options_; }

 private:
  [[nodiscard]] std::uint64_t stream(std::string_view scenario_key,
                                     std::uint64_t salt) const;

  FaultOptions options_{};
  bool active_ = false;
};

}  // namespace flare::dcsim
