// Per-job microarchitectural profiles driving the interference model.
//
// Each profile is calibrated to the qualitative characterisations published
// for CloudSuite (Ferdman et al., ASPLOS'12) and SPEC CPU2006 (Phansalkar et
// al., ISCA'07): e.g. Web Serving/Web Search are frontend/i-cache bound,
// Graph Analytics and mcf are LLC/bandwidth hungry, libquantum streams with
// a high irreducible miss floor, memcached has a flat miss-ratio curve over
// a large random-access working set.
#pragma once

#include <string>

#include "dcsim/job_types.hpp"

namespace flare::dcsim {

struct JobProfile {
  JobType type = JobType::kDataAnalytics;
  bool high_priority = true;

  /// Table 3 deployment blurb (threads, heap sizes, target QPS, ...).
  std::string configuration;

  // --- Container shape (the paper's resource-management policy: every
  // instance is a 4-vCPU container; bigger jobs launch more instances) ---
  int vcpus = 4;
  double dram_gb = 4.0;

  /// Average fraction of the container's vCPUs that are busy (servers with a
  /// QPS target sit well below 1.0; batch jobs pin their cores).
  double cpu_utilization = 0.9;

  // --- Core execution ---
  /// Cycles per instruction from the core pipeline alone (L1/L2 hits,
  /// branches, dependencies) — excludes LLC-miss stalls, which the
  /// interference model adds from the shared-cache state.
  double base_cpi = 1.0;
  /// Top-down fraction of pipeline slots lost to instruction-fetch stalls.
  double frontend_bound = 0.10;
  /// Top-down fraction of slots lost to mispredicted work.
  double bad_speculation = 0.06;

  // --- Shared-cache behaviour ---
  /// LLC accesses per kilo-instruction (i.e. L2 misses reaching the LLC).
  double llc_apki = 15.0;
  /// Miss-ratio curve: ratio(c) = floor + (1-floor) * (h / (h + c))^s where
  /// c is the LLC capacity allocated to this instance in MB.
  double mrc_half_mb = 8.0;    ///< h: capacity scale of the curve
  double mrc_steepness = 1.0;  ///< s: how quickly misses fall with capacity
  double min_miss_ratio = 0.1; ///< floor: irreducible (streaming) misses
  /// Cache footprint the instance can productively use; allocations beyond
  /// this are returned to the shared pool.
  double working_set_mb = 24.0;

  // --- Memory system ---
  /// Memory-level parallelism: outstanding misses overlap, dividing the
  /// exposed miss latency (prefetch-friendly streams have high MLP).
  double mlp = 2.5;

  // --- SMT behaviour ---
  /// Relative per-thread throughput when two threads share a physical core
  /// (1.0 = no loss; typical 0.55–0.70). Aggregate core throughput with SMT
  /// is 2 × smt_yield ≥ 1.
  double smt_yield = 0.62;

  // --- Ancillary counters (feed the Profiler's raw metrics) ---
  /// Fraction of retired ops that are floating-point (analytics jobs high).
  double fp_fraction = 0.10;
  /// Fraction of cycles in spin loops — the paper's jobs "are optimized to
  /// spend time in spin locks minimally", so this stays near zero.
  double spin_fraction = 0.01;
  double branch_mpki = 5.0;
  double l1i_mpki = 8.0;
  /// Nominal request service time for latency-sensitive services, measured
  /// uncontended on the baseline machine. 0 = batch job (no latency SLO).
  double base_service_ms = 0.0;
  double network_mbps = 50.0;  ///< per instance
  double disk_iops = 100.0;    ///< per instance

  /// Miss ratio of the LLC miss-ratio curve at `cache_mb` of allocated LLC.
  [[nodiscard]] double miss_ratio(double cache_mb) const;
};

}  // namespace flare::dcsim
