// FLARE step 4 substrate (§4.5): the Replayer.
//
// The Replayer reconstructs a job co-location scenario on the load-testing
// testbed ("executing the jobs with the recorded commands and options") with
// and without the candidate feature, and measures the impact. It also keeps
// the cost ledger: evaluation cost is proportional to the number of distinct
// scenarios reconstructed (§5.4), which is what the 50×/10× overhead claims
// count.
//
// Real testbeds hang, crash, lose machines mid-campaign, and return noisy or
// invalid measurements, so every replay runs as a fault-tolerant attempt
// loop: bounded retries with deterministic seeded exponential backoff on a
// *simulated* clock (no wall time — runs stay bit-reproducible), a per-replay
// deadline watchdog, finiteness/plausibility validation of every reading, and
// CI-gated repeat measurement that keeps re-measuring until the impact
// estimate's confidence half-width is under the policy threshold or the
// per-scenario replay budget is exhausted. Every attempt is billed, and every
// replay leaves a ReplayHealth record. With the fault model inactive the loop
// collapses to exactly one clean attempt — bit-identical to the historical
// failure-free path.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/impact.hpp"
#include "dcsim/replay_faults.hpp"

namespace flare::core {

/// Retry / deadline / measurement policy for one testbed replay.
struct ReplayPolicy {
  /// Consecutive failed attempts (timeout, crash, invalid reading) tolerated
  /// before the replay is declared unreplayable. 0 = no retries.
  int max_retries = 3;
  /// Hard cap on total attempts per (scenario, feature) replay — failures
  /// and repeat measurements together. The per-scenario replay budget.
  int replay_budget = 8;
  /// Simulated seconds a clean reconstruction + measurement takes.
  double nominal_seconds = 300.0;
  /// Watchdog deadline per attempt; a hung replay is killed (and billed) at
  /// this mark. Must be >= nominal_seconds.
  double deadline_seconds = 900.0;
  /// Base of the seeded exponential backoff between failed attempts:
  /// base · 2^(failures−1) · jitter, jitter uniform in [0.5, 1.5).
  double backoff_base_seconds = 30.0;
  std::uint64_t backoff_seed = 0xBACC0FFull;
  /// Noise gate: with the fault model active, keep measuring until the 95 %
  /// CI half-width of the mean reading is at or under this (in percentage
  /// points of impact) — needs at least two measurements. <= 0 disables the
  /// gate (first valid reading wins).
  double target_ci_halfwidth_pp = 0.5;
  /// Plausible impact range (percent MIPS reduction); readings outside are
  /// rejected as invalid and retried.
  double min_plausible_pct = -400.0;
  double max_plausible_pct = 100.0;
  /// Estimator escalation threshold (see FlareEstimator): if more than this
  /// share of observation-weight mass ends up in unreplayable (quarantined)
  /// clusters, the evaluation throws ReplayError instead of returning a
  /// silently hollow estimate.
  double max_quarantined_mass = 0.5;
  /// Bound on the fallback outward walk per cluster: how many runner-up
  /// members the estimator probes before quarantining the cluster.
  int max_fallback_probes = 5;
};

/// How a replay concluded.
enum class ReplayOutcome : unsigned char {
  kClean,        ///< first attempt, no faults, single measurement
  kRecovered,    ///< needed retries and/or repeat measurements, but measured
  kUnreplayable, ///< retries exhausted without a single valid reading
};

/// The result of one fault-tolerant replay: the aggregated impact reading
/// (median of valid measurements — robust to surviving noise spikes) plus
/// everything needed for uncertainty-aware aggregation downstream.
struct ReplayMeasurement {
  double impact_pct = 0.0;       ///< median of the valid readings
  double ci_halfwidth_pp = 0.0;  ///< 95 % CI half-width of the mean reading
  int attempts = 0;              ///< total attempts billed (failures included)
  int failed_attempts = 0;       ///< timeouts + crashes + invalid readings
  int measurements = 0;          ///< valid readings aggregated
  double simulated_seconds = 0.0;  ///< testbed time incl. backoff waits
  ReplayOutcome outcome = ReplayOutcome::kClean;

  [[nodiscard]] bool ok() const {
    return outcome != ReplayOutcome::kUnreplayable;
  }
};

/// One journal entry per replay call — the replay plane's RowHealth analogue.
struct ReplayHealth {
  std::size_t scenario_id = 0;
  std::string scenario_key;    ///< the reconstructed job mix
  std::string feature_name;
  ReplayOutcome outcome = ReplayOutcome::kClean;
  int attempts = 0;
  int failed_attempts = 0;
  int measurements = 0;
  double ci_halfwidth_pp = 0.0;
  double simulated_seconds = 0.0;
};

class Replayer {
 public:
  /// The testbed is the ImpactModel's baseline machine; features are applied
  /// on top of it per replay. `faults` is the (default-inactive) testbed
  /// fault injector; `policy` governs retries, deadlines, and the noise gate.
  explicit Replayer(const ImpactModel& impact, ReplayPolicy policy = {},
                    dcsim::ReplayFaultModel faults = {});
  /// The Replayer keeps a reference to the impact model; a temporary would dangle.
  explicit Replayer(ImpactModel&&, ReplayPolicy = {},
                    dcsim::ReplayFaultModel = {}) = delete;

  /// Scenario-level HP impact (percent MIPS reduction) measured on the
  /// testbed through the full attempt loop. Each distinct
  /// (scenario, feature-content) pair is billed once in the distinct-scenario
  /// ledger; every attempt is billed in the attempt ledger.
  [[nodiscard]] ReplayMeasurement replay_scenario_measured(
      const dcsim::ColocationScenario& scenario, const Feature& feature);

  /// Per-job impact within the scenario; the mix must contain `type`.
  [[nodiscard]] ReplayMeasurement replay_job_measured(
      dcsim::JobType type, const dcsim::ColocationScenario& scenario,
      const Feature& feature);

  /// Distinct scenarios reconstructed so far (the evaluation cost). Keyed on
  /// (scenario id, feature *content* fingerprint): two distinct features that
  /// happen to share a name are distinct testbed setups and bill separately.
  [[nodiscard]] std::size_t distinct_scenario_replays() const {
    return billed_.size();
  }

  /// Total replay attempts (a scenario reused across features re-bills, and
  /// every retry or repeat measurement of an attempt loop bills too — failed
  /// testbed runs consume testbed time like successful ones).
  [[nodiscard]] std::size_t total_replays() const { return total_; }

  /// Attempts that failed (timed out, crashed, or returned invalid readings).
  [[nodiscard]] std::size_t failed_replays() const { return failed_; }

  /// Simulated testbed seconds consumed so far (run time + backoff waits).
  [[nodiscard]] double simulated_seconds() const { return clock_seconds_; }

  /// Per-replay health journal, in call order.
  [[nodiscard]] const std::vector<ReplayHealth>& health_log() const {
    return health_log_;
  }

  [[nodiscard]] const ImpactModel& impact() const { return *impact_; }
  [[nodiscard]] const ReplayPolicy& policy() const { return policy_; }
  [[nodiscard]] const dcsim::ReplayFaultModel& faults() const { return faults_; }

 private:
  /// The fault-tolerant attempt loop shared by the scenario- and job-level
  /// replays. `clean_reading` is invoked (lazily, at most once) only for
  /// attempts whose run completes — the reconstruction is deterministic, so
  /// all clean attempts would read the same value.
  template <typename CleanFn>
  [[nodiscard]] ReplayMeasurement measure(const dcsim::ColocationScenario& scenario,
                                          const Feature& feature,
                                          CleanFn&& clean_reading);

  [[nodiscard]] double backoff_seconds(std::string_view scenario_key,
                                       std::uint64_t feature_fingerprint,
                                       int consecutive_failures) const;

  const ImpactModel* impact_;  ///< non-owning
  ReplayPolicy policy_;
  dcsim::ReplayFaultModel faults_;
  std::set<std::pair<std::size_t, std::uint64_t>> billed_;
  std::size_t total_ = 0;
  std::size_t failed_ = 0;
  double clock_seconds_ = 0.0;
  std::vector<ReplayHealth> health_log_;
};

}  // namespace flare::core
