// Tail-latency extension.
//
// The paper's metric is instruction throughput (MIPS), chosen because its
// industry partner's jobs expose throughput directly (§5.1). Much of the
// datacenter literature the paper builds on, however, manages p99 latency —
// and throughput understates a feature's tail impact near saturation. This
// model derives a first-order p99 estimate for the latency-sensitive
// services from the same interference results:
//
//   slowdown σ  = (uncontended per-thread MIPS) / (actual per-thread MIPS)
//   service s   = base_service_ms · σ          (requests cost σ× more work-time)
//   utilisation ρ_eff = min(ρ_nominal · σ, cap) (fixed arrival rate: longer
//                                                service inflates utilisation)
//   p99 ≈ s · (1 + ln(100) · ρ_eff / (1 − ρ_eff))   (M/M/1-flavoured tail)
//
// The nonlinearity in ρ is the point: a feature that costs 15 % MIPS can
// multiply p99 for a service that was already running hot.
#pragma once

#include "core/feature.hpp"
#include "core/impact.hpp"

namespace flare::core {

struct TailLatencyConfig {
  /// Utilisation ceiling before the queue is reported as saturated.
  double utilization_cap = 0.98;
  /// ln(100): the M/M/1 99th-percentile waiting factor.
  double p99_factor = 4.60517;
};

struct TailLatencyResult {
  dcsim::JobType job = dcsim::JobType::kDataCaching;
  double service_ms = 0.0;      ///< contended service time
  double utilization = 0.0;     ///< effective queue utilisation (capped)
  double p99_ms = 0.0;
  bool saturated = false;       ///< ρ hit the cap: the SLO is gone, not degraded
};

class TailLatencyModel {
 public:
  explicit TailLatencyModel(const ImpactModel& impact, TailLatencyConfig config = {});
  TailLatencyModel(ImpactModel&&, TailLatencyConfig = {}) = delete;  // dangling

  /// p99 of `job` inside `mix` on the (possibly featured) machine. The job
  /// must be latency-sensitive (base_service_ms > 0) and present in the mix.
  [[nodiscard]] TailLatencyResult evaluate(dcsim::JobType job,
                                           const dcsim::JobMix& mix,
                                           const dcsim::MachineConfig& machine,
                                           MeasurementContext context) const;

  /// Percent p99 increase of `job` in the scenario when `feature` is applied
  /// (positive = latency got worse). Saturation returns +inf-like large
  /// values capped at 10 000 %.
  [[nodiscard]] double job_p99_impact_pct(dcsim::JobType job,
                                          const dcsim::JobMix& mix,
                                          const Feature& feature,
                                          MeasurementContext context) const;

 private:
  const ImpactModel* impact_;  ///< non-owning
  TailLatencyConfig config_;
};

}  // namespace flare::core
