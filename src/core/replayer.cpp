#include "core/replayer.hpp"

#include <algorithm>
#include <cmath>

#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::core {

Replayer::Replayer(const ImpactModel& impact, ReplayPolicy policy,
                   dcsim::ReplayFaultModel faults)
    : impact_(&impact), policy_(policy), faults_(std::move(faults)) {
  ensure(policy_.max_retries >= 0, "ReplayPolicy: max_retries must be >= 0");
  ensure(policy_.replay_budget >= 1, "ReplayPolicy: replay_budget must be >= 1");
  ensure(policy_.nominal_seconds > 0.0,
         "ReplayPolicy: nominal_seconds must be positive");
  ensure(policy_.deadline_seconds >= policy_.nominal_seconds,
         "ReplayPolicy: deadline_seconds must be >= nominal_seconds");
  ensure(policy_.backoff_base_seconds >= 0.0,
         "ReplayPolicy: backoff_base_seconds must be non-negative");
  ensure(policy_.min_plausible_pct < policy_.max_plausible_pct,
         "ReplayPolicy: plausible range is empty");
  ensure(policy_.max_quarantined_mass >= 0.0 && policy_.max_quarantined_mass <= 1.0,
         "ReplayPolicy: max_quarantined_mass must be in [0, 1]");
  ensure(policy_.max_fallback_probes >= 0,
         "ReplayPolicy: max_fallback_probes must be >= 0");
}

double Replayer::backoff_seconds(std::string_view scenario_key,
                                 std::uint64_t feature_fingerprint,
                                 int consecutive_failures) const {
  // base · 2^(failures−1) · jitter, jitter ~ U[0.5, 1.5) from a stream that is
  // a pure function of (seed, scenario, feature, failure count) — retries wait
  // the same simulated time in every run.
  stats::Rng rng(util::hash_mix(
      util::hash_mix(util::fnv1a(scenario_key, policy_.backoff_seed),
                     feature_fingerprint),
      static_cast<std::uint64_t>(consecutive_failures)));
  const double jitter = rng.uniform(0.5, 1.5);
  return policy_.backoff_base_seconds *
         std::ldexp(1.0, consecutive_failures - 1) * jitter;
}

template <typename CleanFn>
ReplayMeasurement Replayer::measure(const dcsim::ColocationScenario& scenario,
                                    const Feature& feature,
                                    CleanFn&& clean_reading) {
  const std::uint64_t fingerprint = feature.fingerprint(impact_->baseline_machine());
  billed_.emplace(scenario.id, fingerprint);

  ReplayMeasurement result;
  if (!faults_.active()) {
    // Failure-free testbed: one attempt, one reading, no retry bookkeeping.
    ++total_;
    result.impact_pct = clean_reading();
    result.attempts = 1;
    result.measurements = 1;
    result.simulated_seconds = policy_.nominal_seconds;
    result.outcome = ReplayOutcome::kClean;
  } else {
    const std::string key = scenario.mix.key();
    const bool machine_lost = faults_.lose_machine(key);
    double clean = 0.0;
    bool clean_read = false;
    std::vector<double> readings;
    int consecutive_failures = 0;

    for (int attempt = 0; attempt < policy_.replay_budget; ++attempt) {
      ++total_;
      ++result.attempts;

      dcsim::ReplayAttemptFault fault =
          faults_.attempt_fault(key, fingerprint, attempt);
      if (machine_lost) {
        // The hosting testbed machine is gone for the campaign: every
        // reconstruction dies almost immediately, whatever else was drawn.
        fault = {dcsim::ReplayFaultKind::kCrash, 0.05};
      }

      bool failed = false;
      double elapsed = policy_.nominal_seconds;
      double reading = 0.0;
      switch (fault.kind) {
        case dcsim::ReplayFaultKind::kHang:
          // Watchdog: the wedged run is killed at the deadline, not left to
          // block the campaign for fault.magnitude × nominal seconds.
          elapsed = std::min(policy_.nominal_seconds * fault.magnitude,
                             policy_.deadline_seconds);
          failed = true;
          break;
        case dcsim::ReplayFaultKind::kCrash:
          elapsed = policy_.nominal_seconds * fault.magnitude;
          failed = true;
          break;
        default: {
          if (!clean_read) {
            clean = clean_reading();
            clean_read = true;
          }
          reading = faults_.corrupt_reading(clean, fault);
          if (!std::isfinite(reading) || reading < policy_.min_plausible_pct ||
              reading > policy_.max_plausible_pct) {
            failed = true;
          }
          break;
        }
      }
      result.simulated_seconds += elapsed;

      if (failed) {
        ++failed_;
        ++result.failed_attempts;
        ++consecutive_failures;
        if (consecutive_failures > policy_.max_retries) break;
        result.simulated_seconds +=
            backoff_seconds(key, fingerprint, consecutive_failures);
        continue;
      }

      consecutive_failures = 0;
      readings.push_back(reading);
      if (policy_.target_ci_halfwidth_pp <= 0.0) break;
      if (readings.size() >= 2 &&
          stats::mean_ci_halfwidth(readings) <= policy_.target_ci_halfwidth_pp) {
        break;
      }
    }

    result.measurements = static_cast<int>(readings.size());
    if (readings.empty()) {
      result.outcome = ReplayOutcome::kUnreplayable;
    } else {
      // Median, not mean: a noise spike that slipped past the CI gate should
      // not drag the aggregate.
      result.impact_pct = stats::median(readings);
      result.ci_halfwidth_pp =
          readings.size() > 1 ? stats::mean_ci_halfwidth(readings) : 0.0;
      result.outcome = (result.attempts == 1 && result.failed_attempts == 0)
                           ? ReplayOutcome::kClean
                           : ReplayOutcome::kRecovered;
    }
  }

  clock_seconds_ += result.simulated_seconds;
  ReplayHealth health;
  health.scenario_id = scenario.id;
  health.scenario_key = scenario.mix.key();
  health.feature_name = feature.name();
  health.outcome = result.outcome;
  health.attempts = result.attempts;
  health.failed_attempts = result.failed_attempts;
  health.measurements = result.measurements;
  health.ci_halfwidth_pp = result.ci_halfwidth_pp;
  health.simulated_seconds = result.simulated_seconds;
  health_log_.push_back(std::move(health));
  return result;
}

ReplayMeasurement Replayer::replay_scenario_measured(
    const dcsim::ColocationScenario& scenario, const Feature& feature) {
  return measure(scenario, feature, [&] {
    return impact_->scenario_impact_pct(scenario.mix, feature,
                                        MeasurementContext::kTestbed);
  });
}

ReplayMeasurement Replayer::replay_job_measured(
    dcsim::JobType type, const dcsim::ColocationScenario& scenario,
    const Feature& feature) {
  return measure(scenario, feature, [&] {
    return impact_->job_impact_pct(type, scenario.mix, feature,
                                   MeasurementContext::kTestbed);
  });
}

}  // namespace flare::core
