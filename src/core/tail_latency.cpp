#include "core/tail_latency.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flare::core {

TailLatencyModel::TailLatencyModel(const ImpactModel& impact,
                                   TailLatencyConfig config)
    : impact_(&impact), config_(config) {
  ensure(config_.utilization_cap > 0.0 && config_.utilization_cap < 1.0,
         "TailLatencyModel: utilization_cap must be in (0, 1)");
  ensure(config_.p99_factor > 0.0, "TailLatencyModel: p99_factor must be positive");
}

TailLatencyResult TailLatencyModel::evaluate(dcsim::JobType job,
                                             const dcsim::JobMix& mix,
                                             const dcsim::MachineConfig& machine,
                                             MeasurementContext context) const {
  const dcsim::JobProfile& profile = impact_->model().catalog().profile(job);
  ensure(profile.base_service_ms > 0.0,
         "TailLatencyModel: job has no latency semantics (base_service_ms == 0)");
  ensure(mix.count(job) > 0, "TailLatencyModel: job not present in the mix");

  // Per-thread throughput: uncontended (the service-time calibration point)
  // vs inside this scenario on this machine.
  const double threads =
      static_cast<double>(profile.vcpus) * profile.cpu_utilization;
  const double solo_thread_mips = impact_->inherent_mips(job) / threads;
  const dcsim::ScenarioPerformance perf = impact_->evaluate(mix, machine, context);
  const double actual_thread_mips = perf.job(job).mips_per_instance / threads;
  ensure_numeric(actual_thread_mips > 0.0,
                 "TailLatencyModel: zero throughput in scenario");

  const double slowdown = solo_thread_mips / actual_thread_mips;

  TailLatencyResult result;
  result.job = job;
  result.service_ms = profile.base_service_ms * slowdown;
  const double rho = profile.cpu_utilization * slowdown;
  result.saturated = rho >= config_.utilization_cap;
  result.utilization = std::min(rho, config_.utilization_cap);
  result.p99_ms =
      result.service_ms *
      (1.0 + config_.p99_factor * result.utilization / (1.0 - result.utilization));
  return result;
}

double TailLatencyModel::job_p99_impact_pct(dcsim::JobType job,
                                            const dcsim::JobMix& mix,
                                            const Feature& feature,
                                            MeasurementContext context) const {
  const TailLatencyResult base =
      evaluate(job, mix, impact_->baseline_machine(), context);
  const TailLatencyResult feat =
      evaluate(job, mix, feature.apply(impact_->baseline_machine()), context);
  const double impact = 100.0 * (feat.p99_ms - base.p99_ms) / base.p99_ms;
  return std::min(impact, 10000.0);
}

}  // namespace flare::core
