// FLARE step 1 (§4.2): the Profiler daemon.
//
// In the paper this is a per-machine daemon that periodically samples perf
// counters, top-down events and /proc, and writes averaged rows into a
// relational database. Here it drives the interference model once per
// sampling period per scenario and averages the synthesized counter rows —
// the same averaging semantics ("for each job in each scenario, we log the
// average performance and resource metrics").
//
// Real fleets deliver glitchy counters (multiplexed events, stuck or
// non-finite readings, dropped samples, machines that never report). The
// profiler therefore validates every reading, retries invalid samples on a
// fresh noise substream, averages only what survived, and records a
// `RowHealth` per row so downstream stages can quarantine rows that fell
// below the sample quorum. With faults disabled the path is bit-identical to
// the original clean profiler.
#pragma once

#include <cstdint>
#include <vector>

#include "dcsim/counters.hpp"
#include "dcsim/interference_model.hpp"
#include "dcsim/scenario.hpp"
#include "metrics/metric_database.hpp"

namespace flare::util {
class ThreadPool;
}  // namespace flare::util

namespace flare::core {

struct ProfilerConfig {
  /// Sampling periods averaged per scenario (the daemon's periodic reads).
  int samples_per_scenario = 4;
  dcsim::CounterOptions counters;
  /// Base noise stream; each (scenario, sample) gets an independent stream.
  std::uint64_t noise_stream = 0x0D47A;  // datacenter measurement context
  /// Worker threads for profile(): 1 = sequential (default), 0 = one per
  /// hardware thread. Rows are written by index, so results are identical
  /// regardless of the thread count.
  std::size_t threads = 1;

  /// Deterministic fault injection (off by default; see dcsim::FaultOptions).
  dcsim::FaultOptions faults;
  /// Extra attempts per invalid sample, each on a fresh noise substream.
  int max_retries = 2;
  /// Minimum samples (fully or partially valid) a row needs to be trusted;
  /// rows below the quorum are flagged for quarantine downstream.
  int sample_quorum = 1;
  /// Readings outside ±max_abs_reading are treated as glitches (a counter
  /// cannot legitimately report ~1e18 of anything per sampling period).
  double max_abs_reading = 1e18;
};

/// Measurement-quality record for one profiled row. A "sample" is one
/// periodic read of the whole counter schema; samples_per_scenario of them
/// are averaged into the row.
struct RowHealth {
  /// Samples whose final attempt had every reading valid.
  int valid_samples = 0;
  /// Samples that contributed some but not all metrics (retries exhausted
  /// with residual glitches; the valid readings still count).
  int partial_samples = 0;
  /// Samples that contributed nothing (all attempts dropped or fully bad).
  int dropped_samples = 0;
  /// Samples that burned at least one retry attempt.
  int retried_samples = 0;
  /// The machine never reported this round (whole-row loss): every sample
  /// dropped, every metric imputed, no retry can help.
  bool row_lost = false;
  /// Schema-indexed mask: true where no valid reading survived and the cell
  /// holds NaN awaiting imputation (covers derived _Std columns too).
  std::vector<bool> imputed_metrics;

  /// Rows below the quorum are quarantined out of fits downstream.
  [[nodiscard]] bool below_quorum(int quorum) const {
    return valid_samples + partial_samples < quorum;
  }
  [[nodiscard]] bool clean() const {
    return !row_lost && partial_samples == 0 && dropped_samples == 0 &&
           retried_samples == 0;
  }
  [[nodiscard]] int imputed_count() const {
    int n = 0;
    for (const bool b : imputed_metrics) n += b ? 1 : 0;
    return n;
  }
};

/// A profiled database plus per-row measurement health (index-aligned).
struct ProfileReport {
  metrics::MetricDatabase database;
  std::vector<RowHealth> health;

  [[nodiscard]] int rows_below_quorum(int quorum) const {
    int n = 0;
    for (const RowHealth& h : health) n += h.below_quorum(quorum) ? 1 : 0;
    return n;
  }
  [[nodiscard]] int total_retried_samples() const {
    int n = 0;
    for (const RowHealth& h : health) n += h.retried_samples;
    return n;
  }
  [[nodiscard]] int total_imputed_cells() const {
    int n = 0;
    for (const RowHealth& h : health) n += h.imputed_count();
    return n;
  }
};

class Profiler {
 public:
  explicit Profiler(const dcsim::InterferenceModel& model, ProfilerConfig config = {});
  /// The Profiler keeps a reference to the model; a temporary would dangle.
  explicit Profiler(dcsim::InterferenceModel&& model, ProfilerConfig config = {}) =
      delete;

  /// Profiles every scenario of the set on `machine` and returns the filled
  /// metric database (rows in scenario order, observation weights copied).
  /// With `shared_pool`, scenarios run on the caller's pool (FlarePipeline
  /// shares one pool across profiling and analysis) and `threads` is ignored;
  /// otherwise a private pool is built when `threads != 1`. Rows are written
  /// by index, so every path produces identical output.
  [[nodiscard]] metrics::MetricDatabase profile(
      const dcsim::ScenarioSet& set, const dcsim::MachineConfig& machine,
      const metrics::MetricCatalog& schema = metrics::MetricCatalog::standard(),
      util::ThreadPool* shared_pool = nullptr) const;

  /// Like profile(), but also returns the per-row health records. Cells with
  /// no surviving reading hold NaN and are flagged in `imputed_metrics`;
  /// callers must impute (ml/impute.hpp) or quarantine before fitting.
  [[nodiscard]] ProfileReport profile_with_health(
      const dcsim::ScenarioSet& set, const dcsim::MachineConfig& machine,
      const metrics::MetricCatalog& schema = metrics::MetricCatalog::standard(),
      util::ThreadPool* shared_pool = nullptr) const;

 private:
  const dcsim::InterferenceModel* model_;  ///< non-owning
  ProfilerConfig config_;
  dcsim::CounterFaultModel fault_model_;
};

}  // namespace flare::core
