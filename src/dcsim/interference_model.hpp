// Analytic colocation performance model.
//
// Given a machine configuration and a job mix, the model resolves the three
// shared-resource interactions that drive datacenter interference:
//
//   1. LLC partitioning — shared cache is divided by access-rate-weighted
//      water-filling, capped at each instance's working set; the per-instance
//      allocation feeds that job's miss-ratio curve.
//   2. Memory bandwidth contention — aggregate miss traffic loads the DRAM
//      channels; a queueing-shaped latency multiplier feeds back into per-job
//      memory stall time (fixed-point iteration).
//   3. Core/SMT contention — busy threads beyond the physical core count
//      either share cores (SMT on, per-job SMT yield) or time-share hardware
//      contexts (SMT off, plus context-switch overhead).
//
// Execution time per instruction splits into a frequency-scaled core term and
// a frequency-independent memory term, which is what makes DVFS (Feature 2)
// hurt compute-bound scenarios more than memory-bound ones — the first-order
// behaviour the paper's Feature 2 experiments rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "dcsim/job_catalog.hpp"
#include "dcsim/machine_config.hpp"
#include "dcsim/scenario.hpp"

namespace flare::dcsim {

struct ModelOptions {
  /// Multiplicative lognormal measurement noise (σ of log), 0 disables.
  double noise_sigma = 0.015;
  bool enable_noise = true;
  /// Socket-aware (NUMA) resource modelling: instances are spread across
  /// sockets (balanced, deterministic) and contend for their *own* socket's
  /// LLC and memory channels instead of one pooled resource. Off by default
  /// — the pooled model is the calibrated configuration every published
  /// number uses; the ablation bench quantifies the difference.
  bool socket_aware = false;
  /// Fixed-point iterations for the bandwidth-latency feedback loop.
  int bandwidth_iterations = 4;
  /// Context-switch throughput tax when time-sharing (SMT off, oversubscribed).
  double context_switch_overhead = 0.03;
  /// Effective DRAM traffic per LLC miss, bytes (line + writeback share).
  double bytes_per_miss = 90.0;
  /// Latency multiplier ceiling under extreme bandwidth saturation.
  double max_latency_multiplier = 4.0;
};

/// Per-job-type results within one evaluated scenario (aggregated across the
/// identical instances of that type).
struct JobTypePerformance {
  JobType type = JobType::kDataAnalytics;
  int instances = 0;
  double mips_per_instance = 0.0;     ///< absolute MIPS of one 4-vCPU instance
  double ipc = 0.0;                   ///< per busy thread
  double cache_mb_per_instance = 0.0; ///< LLC allocation from water-filling
  double llc_miss_ratio = 0.0;
  double llc_mpki = 0.0;
  double mem_bw_gbps_per_instance = 0.0;
  double core_speed_factor = 1.0;     ///< SMT / time-sharing slowdown
  double effective_mem_latency_ns = 0.0;
  // Top-down pipeline-slot decomposition (sums to 1).
  double td_frontend = 0.0;
  double td_bad_speculation = 0.0;
  double td_retiring = 0.0;
  double td_backend_mem = 0.0;
  double td_backend_core = 0.0;
};

/// Full result of evaluating one scenario on one machine configuration.
struct ScenarioPerformance {
  MachineConfig machine;
  JobMix mix;
  std::vector<JobTypePerformance> jobs;  ///< one entry per present job type

  // Machine-level aggregates.
  double total_mips = 0.0;
  double hp_mips = 0.0;
  double busy_threads = 0.0;          ///< demand-weighted busy vCPUs
  double cpu_utilization = 0.0;       ///< busy threads / scheduling vCPUs
  double mem_bw_gbps = 0.0;
  double mem_bw_utilization = 0.0;    ///< demand / capacity, pre-clamp
  double mem_latency_multiplier = 1.0;
  double llc_used_mb = 0.0;
  double network_mbps = 0.0;
  double network_utilization = 0.0;
  double disk_iops = 0.0;

  /// Lookup by type; throws std::invalid_argument when absent from the mix.
  [[nodiscard]] const JobTypePerformance& job(JobType type) const;
};

class InterferenceModel {
 public:
  explicit InterferenceModel(const JobCatalog& catalog = default_job_catalog(),
                             ModelOptions options = {});

  /// Evaluates the mix on the machine. `noise_stream` selects an independent
  /// noise realisation (e.g. one per datacenter machine-observation vs. one
  /// per testbed replay); results are deterministic per
  /// (machine, mix, stream).
  [[nodiscard]] ScenarioPerformance evaluate(const MachineConfig& machine,
                                             const JobMix& mix,
                                             std::uint64_t noise_stream = 0) const;

  /// MIPS of a single instance running alone on an otherwise empty machine —
  /// the "job's inherent MIPS" used to normalise performance (§5.1).
  /// Noise-free by construction.
  [[nodiscard]] double inherent_mips(const MachineConfig& machine, JobType type) const;

  [[nodiscard]] const ModelOptions& options() const { return options_; }
  [[nodiscard]] const JobCatalog& catalog() const { return catalog_; }

 private:
  JobCatalog catalog_;
  ModelOptions options_;
};

}  // namespace flare::dcsim
