// Non-stationary fleet dynamics (DESIGN.md §17): a seeded, composable layer
// over the §5.1 job-submission simulation that turns the stationary scenario
// stream into the regimes real datacenters exhibit —
//
//   * diurnal    — sinusoidal arrival-rate and job-mix (HP share) cycles;
//   * flash      — Poisson-triggered arrival spikes with short-job skew;
//   * upgrade    — a rolling software upgrade: a configurable fraction of
//                  machines migrates to version-2 job profiles (shifted
//                  counter behaviours) once the migration hour passes;
//   * anomaly    — Alibaba-style co-location interference episodes that
//                  corrupt a *cluster-coherent* subset of rows (one episode =
//                  one machine subset, one shared distortion direction), not
//                  i.i.d. noise.
//
// Determinism contract: with every generator disabled (the default) the
// submission loop consumes the exact same RNG stream as before this layer
// existed — archived traces and the analyzer golden hash stay bit-identical.
// Enabled generators draw episode schedules from a *separate* RNG seeded
// only by WorkloadDynamics::seed, so the same dynamics replay identically
// across streaming batch windows that advance `start_hour`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dcsim/job_profile.hpp"
#include "dcsim/scenario.hpp"
#include "metrics/metric_catalog.hpp"

namespace flare::dcsim {

/// Sinusoidal load cycle: arrival rate × (1 + A·sin(2π(t−phase)/period)),
/// HP-share modulated with the same phase.
struct DiurnalOptions {
  bool enabled = false;
  std::string shape;  ///< restrict to one machine shape ("" = every shape)
  double period_hours = 24.0;
  /// Relative swing of the arrival rate (0.4 → ±40%); in [0, 1).
  double arrival_amplitude = 0.3;
  /// Absolute swing of the HP submission fraction (clamped into [0, 1]).
  double hp_amplitude = 0.0;
  double phase_hours = 0.0;
};

/// Poisson-triggered arrival spikes with short-job skew.
struct FlashCrowdOptions {
  bool enabled = false;
  std::string shape;
  double episodes_per_khour = 2.0;  ///< expected episodes per 1000 sim-hours
  double duration_hours = 2.0;
  double arrival_multiplier = 4.0;  ///< arrival-rate factor inside an episode
  /// Mean extra-duration multiplier inside an episode (<1 = short-job skew).
  double short_job_factor = 0.35;
};

/// Rolling software upgrade: from `at_hours` on, the first
/// round(migrated_fraction × num_machines) machines submit version-2 job
/// profiles whose counters shift by `shift` in log-scale (see
/// apply_dynamics_overlay) — a sustained behaviour change the pipeline must
/// refit for, exactly once.
struct RollingUpgradeOptions {
  bool enabled = false;
  std::string shape;
  double at_hours = 0.0;
  double migrated_fraction = 0.5;  ///< in [0, 1]
  /// Log-scale counter-shift magnitude of the version-2 profiles.
  double shift = 0.25;
};

/// Anomalous co-location interference episodes: each episode picks a machine
/// subset (machine_fraction) and corrupts every scenario row observed on it
/// while the episode runs, all rows sharing one distortion direction per
/// metric — the cluster-coherent outlier structure the episode quarantine
/// must fence as a unit.
struct AnomalyOptions {
  bool enabled = false;
  std::string shape;
  double episodes_per_khour = 1.0;
  double duration_hours = 4.0;
  /// Log-scale corruption magnitude applied to affected rows' counters.
  double intensity = 1.0;
  double machine_fraction = 0.5;  ///< in (0, 1]
};

/// The composable non-stationarity layer carried on SubmissionConfig. All
/// generators default to disabled; `any()` false means the submission loop is
/// bit-identical to the stationary simulator.
struct WorkloadDynamics {
  /// Seeds the episode schedules (flash/anomaly) and nothing else — the
  /// arrival stream keeps SubmissionConfig::seed, so batches windowed over
  /// the same dynamics replay the same absolute-time episode timeline.
  std::uint64_t seed = 0xD15EA5Eull;
  /// Absolute simulation hour this run starts at: streaming batch windows
  /// advance it so diurnal phase, upgrade cutover, and episode schedules
  /// continue across batches instead of restarting.
  double start_hour = 0.0;

  DiurnalOptions diurnal;
  FlashCrowdOptions flash;
  RollingUpgradeOptions upgrade;
  AnomalyOptions anomaly;

  /// Any generator enabled?
  [[nodiscard]] bool any() const;
  /// Copy with every generator scoped to a different shape disabled — what
  /// generate_fleet_scenario_set hands each shape's submission loop.
  [[nodiscard]] WorkloadDynamics for_shape(std::string_view shape) const;
  /// The distinct non-empty shape scopes named by enabled generators (for
  /// CLI validation against the fleet's shape table).
  [[nodiscard]] std::vector<std::string> shape_scopes() const;
};

/// Parses a `--dynamics` spec: comma-separated generator entries, each
/// `name[:key=value...]` with name ∈ {diurnal, flash, upgrade, anomaly}.
/// Keys: common `shape=`; diurnal `period= amp= hp_amp= phase=`; flash
/// `rate= dur= mult= short=`; upgrade `at= frac= shift=`; anomaly
/// `rate= dur= intensity= frac=`. Throws ParseError naming the offending
/// entry/token on unknown generators or keys, malformed numbers, duplicate
/// entries, and out-of-range values.
[[nodiscard]] WorkloadDynamics parse_dynamics_spec(std::string_view spec);

/// Runtime form of one submission run's dynamics: episode schedules are
/// precomputed (from WorkloadDynamics::seed only) up to
/// `start_hour + horizon_hours`, so factor lookups are draw-free and the
/// main arrival RNG stream is untouched. All times are absolute hours.
class DynamicsPlan {
 public:
  DynamicsPlan(const WorkloadDynamics& dynamics, int num_machines,
               double horizon_hours);

  [[nodiscard]] bool active() const { return active_; }
  /// Multiplier on the base arrival rate at `abs_hour` (diurnal × flash).
  [[nodiscard]] double arrival_factor(double abs_hour) const;
  /// HP submission fraction at `abs_hour` given the stationary `base`.
  [[nodiscard]] double hp_fraction(double abs_hour, double base) const;
  /// Multiplier on the mean extra job duration (flash short-job skew).
  [[nodiscard]] double duration_scale(double abs_hour) const;
  /// Job-profile version machine `machine_id` submits at `abs_hour`.
  [[nodiscard]] int profile_version(double abs_hour, int machine_id) const;
  /// Counter-shift magnitude rows of version ≥ 2 carry.
  [[nodiscard]] double profile_shift() const { return dynamics_.upgrade.shift; }

  struct AnomalyTag {
    std::uint32_t episode = 0;  ///< 0 = unaffected; episodes are 1-based
    double intensity = 0.0;
  };
  /// The anomaly episode (if any) covering `machine_id` at `abs_hour`.
  [[nodiscard]] AnomalyTag anomaly_at(double abs_hour, int machine_id) const;

 private:
  struct Episode {
    double start = 0.0;
    double end = 0.0;
    std::vector<char> machines;  ///< affected machines (empty = all)
  };

  WorkloadDynamics dynamics_;
  bool active_ = false;
  int migrated_machines_ = 0;
  std::vector<Episode> flash_;
  std::vector<Episode> anomaly_;
};

/// Applies the deterministic counter distortions a row's dynamics tags call
/// for: version-≥2 rows shift every non-occupancy metric by
/// exp(shift·u(metric, version)), anomaly rows by
/// exp(intensity·u(metric, episode)), with u ∈ [−1, 1) derived from the
/// metric name — so all rows of one version (or one episode) move coherently
/// in the same direction. Occupancy columns (the mix encoding) stay exact.
/// No-op for untagged rows; `sample` is indexed by `catalog`.
void apply_dynamics_overlay(std::vector<double>& sample,
                            const metrics::MetricCatalog& catalog,
                            const ColocationScenario& scenario);

}  // namespace flare::dcsim
