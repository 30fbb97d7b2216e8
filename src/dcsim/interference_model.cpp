#include "dcsim/interference_model.hpp"

#include <algorithm>
#include <cmath>

#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::dcsim {
namespace {

/// Water-filling LLC partition: capacity is split proportionally to each
/// instance's access-rate weight, but no instance receives more than its
/// working set; surplus is redistributed among the still-unsaturated ones.
/// Returns MB per instance of each present type.
std::vector<double> partition_llc(const std::vector<const JobProfile*>& profiles,
                                  const std::vector<int>& counts, double capacity_mb) {
  const std::size_t n = profiles.size();
  std::vector<double> alloc(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = capacity_mb;

  for (std::size_t pass = 0; pass <= n; ++pass) {
    double total_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      total_weight += profiles[i]->llc_apki * profiles[i]->cpu_utilization *
                      static_cast<double>(counts[i]);
    }
    if (total_weight <= 0.0 || remaining <= 0.0) break;

    bool newly_capped = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      const double weight = profiles[i]->llc_apki * profiles[i]->cpu_utilization *
                            static_cast<double>(counts[i]);
      const double share_per_instance =
          remaining * (weight / total_weight) / static_cast<double>(counts[i]);
      if (share_per_instance >= profiles[i]->working_set_mb) {
        alloc[i] = profiles[i]->working_set_mb;
        capped[i] = true;
        newly_capped = true;
      } else {
        alloc[i] = share_per_instance;
      }
    }
    if (newly_capped) {
      // Remove satisfied instances' capacity and redistribute the rest.
      remaining = capacity_mb;
      for (std::size_t i = 0; i < n; ++i) {
        if (capped[i]) remaining -= alloc[i] * static_cast<double>(counts[i]);
      }
      remaining = std::max(remaining, 0.0);
      continue;
    }
    break;  // proportional split fit everyone
  }
  return alloc;
}

}  // namespace

const JobTypePerformance& ScenarioPerformance::job(JobType type) const {
  for (const JobTypePerformance& j : jobs) {
    if (j.type == type) return j;
  }
  ensure(false, "ScenarioPerformance::job: job type not present in scenario");
  // Unreachable; ensure() throws.
  return jobs.front();
}

InterferenceModel::InterferenceModel(const JobCatalog& catalog, ModelOptions options)
    : catalog_(catalog), options_(options) {
  ensure(options_.bandwidth_iterations >= 1,
         "InterferenceModel: bandwidth_iterations must be >= 1");
  ensure(options_.noise_sigma >= 0.0, "InterferenceModel: noise_sigma must be >= 0");
}

ScenarioPerformance InterferenceModel::evaluate(const MachineConfig& machine,
                                                const JobMix& mix,
                                                std::uint64_t noise_stream) const {
  ensure(!mix.empty(), "InterferenceModel::evaluate: empty job mix");
  ensure(mix.vcpus() <= machine.scheduling_vcpus(),
         "InterferenceModel::evaluate: mix exceeds the machine's vCPU capacity");

  ScenarioPerformance result;
  result.machine = machine;
  result.mix = mix;

  // Gather present job types.
  std::vector<const JobProfile*> profiles;
  std::vector<int> counts;
  for (const JobType type : all_job_types()) {
    const int n = mix.count(type);
    if (n == 0) continue;
    profiles.push_back(&catalog_.profile(type));
    counts.push_back(n);
  }
  const std::size_t ntypes = profiles.size();

  // --- 1. Shared LLC partition (per resource domain) ---
  // A domain is the contention scope for LLC and memory channels: the whole
  // machine in the pooled (default, calibrated) model, or one socket in the
  // opt-in NUMA-aware model. Instances spread across sockets deterministically
  // (each to the least-loaded socket, types in enum order).
  const std::size_t num_domains =
      options_.socket_aware && machine.sockets > 1
          ? static_cast<std::size_t>(machine.sockets)
          : 1;
  std::vector<std::vector<int>> domain_counts(num_domains,
                                              std::vector<int>(ntypes, 0));
  if (num_domains == 1) {
    domain_counts[0] = counts;
  } else {
    std::vector<int> socket_vcpus(num_domains, 0);
    for (std::size_t i = 0; i < ntypes; ++i) {
      for (int k = 0; k < counts[i]; ++k) {
        std::size_t target = 0;
        for (std::size_t s = 1; s < num_domains; ++s) {
          if (socket_vcpus[s] < socket_vcpus[target]) target = s;
        }
        ++domain_counts[target][i];
        socket_vcpus[target] += profiles[i]->vcpus;
      }
    }
  }
  const double domain_llc_mb = machine.total_llc_mb() / num_domains;

  // Per (domain, type): cache allocation and the resulting miss behaviour.
  std::vector<std::vector<double>> cache_d(num_domains), mr_d(num_domains),
      mpki_d(num_domains);
  for (std::size_t d = 0; d < num_domains; ++d) {
    cache_d[d] = partition_llc(profiles, domain_counts[d], domain_llc_mb);
    mr_d[d].resize(ntypes);
    mpki_d[d].resize(ntypes);
    double used = 0.0;
    for (std::size_t i = 0; i < ntypes; ++i) {
      if (domain_counts[d][i] == 0) {
        cache_d[d][i] = 0.0;
        continue;
      }
      mr_d[d][i] = profiles[i]->miss_ratio(cache_d[d][i]);
      mpki_d[d][i] = profiles[i]->llc_apki * mr_d[d][i];
      used += cache_d[d][i] * domain_counts[d][i];
    }
    result.llc_used_mb += std::min(used, domain_llc_mb);
  }

  // --- 2. Core / SMT contention ---
  double busy_threads = 0.0;
  for (std::size_t i = 0; i < ntypes; ++i) {
    busy_threads += static_cast<double>(counts[i] * profiles[i]->vcpus) *
                    profiles[i]->cpu_utilization;
  }
  result.busy_threads = busy_threads;
  result.cpu_utilization =
      busy_threads / static_cast<double>(machine.scheduling_vcpus());

  const double cores = static_cast<double>(machine.total_cores());
  std::vector<double> core_speed(ntypes, 1.0);
  if (machine.smt_enabled) {
    if (busy_threads > cores) {
      // 2(B - C) threads run with a sibling; the rest have a core alone.
      const double shared_fraction =
          std::min(2.0 * (busy_threads - cores) / busy_threads, 1.0);
      for (std::size_t i = 0; i < ntypes; ++i) {
        core_speed[i] =
            (1.0 - shared_fraction) + shared_fraction * profiles[i]->smt_yield;
      }
    }
  } else {
    // Hardware contexts == cores. Two effects: (a) oversubscription makes
    // the OS time-slice runnable threads, and (b) even below saturation,
    // bursty thread activity queues on the reduced context count (an M/M/c
    // flavoured wait that SMT's 2× contexts would have absorbed).
    const double slice = busy_threads > cores ? cores / busy_threads : 1.0;
    const double rho = std::min(busy_threads / cores, 1.0);
    const double burst_wait = 1.0 - 0.25 * rho * rho * rho;
    const double factor =
        slice * burst_wait *
        (busy_threads > cores ? 1.0 - options_.context_switch_overhead : 1.0);
    for (double& s : core_speed) s = factor;
  }

  // --- 3. Frequency ---
  // Busy machines run at the governor ceiling; the DVFS feature lowers it.
  const double freq_hz = machine.max_freq_ghz * 1e9;

  // --- 4. Bandwidth-latency fixed point (per resource domain) ---
  const double domain_bw_capacity = machine.total_mem_bw_gbps() / num_domains;
  std::vector<double> lat_mult_d(num_domains, 1.0);
  std::vector<std::vector<double>> mips_d(num_domains,
                                          std::vector<double>(ntypes, 0.0));
  std::vector<double> demand_d(num_domains, 0.0);
  for (int iter = 0; iter < options_.bandwidth_iterations; ++iter) {
    for (std::size_t d = 0; d < num_domains; ++d) {
      demand_d[d] = 0.0;
      for (std::size_t i = 0; i < ntypes; ++i) {
        if (domain_counts[d][i] == 0) continue;
        const double core_s = profiles[i]->base_cpi / (freq_hz * core_speed[i]);
        const double mem_s = mpki_d[d][i] / 1000.0 *
                             (machine.mem_latency_ns * 1e-9 * lat_mult_d[d]) /
                             profiles[i]->mlp;
        const double per_thread_mips = 1e-6 / (core_s + mem_s);
        mips_d[d][i] = per_thread_mips * static_cast<double>(profiles[i]->vcpus) *
                       profiles[i]->cpu_utilization;
        demand_d[d] += mips_d[d][i] * 1e6 * (mpki_d[d][i] / 1000.0) *
                       options_.bytes_per_miss / 1e9 *
                       static_cast<double>(domain_counts[d][i]);
      }
      const double rho = std::min(demand_d[d] / domain_bw_capacity, 0.95);
      lat_mult_d[d] = std::min(1.0 + 0.8 * rho * rho * rho / (1.0 - rho),
                               options_.max_latency_multiplier);
    }
  }

  // Per-type aggregates across domains (identity in the pooled model).
  std::vector<double> mips(ntypes, 0.0), cache_mb(ntypes, 0.0),
      miss_ratio(ntypes, 0.0), mpki(ntypes, 0.0), lat_mult(ntypes, 1.0);
  for (std::size_t i = 0; i < ntypes; ++i) {
    double m = 0.0, c = 0.0, mr = 0.0, mp = 0.0, lm = 0.0;
    for (std::size_t d = 0; d < num_domains; ++d) {
      const double n = static_cast<double>(domain_counts[d][i]);
      m += n * mips_d[d][i];
      c += n * cache_d[d][i];
      mr += n * mr_d[d][i];
      mp += n * mpki_d[d][i];
      lm += n * lat_mult_d[d];
    }
    const double n_total = static_cast<double>(counts[i]);
    mips[i] = m / n_total;
    cache_mb[i] = c / n_total;
    miss_ratio[i] = mr / n_total;
    mpki[i] = mp / n_total;
    lat_mult[i] = lm / n_total;
  }

  double raw_demand_gbps = 0.0, demand_weighted_mult = 0.0;
  for (std::size_t d = 0; d < num_domains; ++d) {
    raw_demand_gbps += demand_d[d];
    demand_weighted_mult += demand_d[d] * lat_mult_d[d];
  }
  result.mem_bw_utilization = raw_demand_gbps / machine.total_mem_bw_gbps();
  result.mem_latency_multiplier =
      raw_demand_gbps > 0.0 ? demand_weighted_mult / raw_demand_gbps : 1.0;

  // --- 5. Network saturation (affects network-heavy services) ---
  double net_demand = 0.0;
  for (std::size_t i = 0; i < ntypes; ++i) {
    net_demand += profiles[i]->network_mbps * counts[i];
  }
  const double net_capacity_mbps = machine.network_gbps * 1000.0;
  const double net_factor =
      net_demand > net_capacity_mbps ? net_capacity_mbps / net_demand : 1.0;
  result.network_utilization = net_demand / net_capacity_mbps;

  // --- 6. Assemble per-job results (+ deterministic measurement noise) ---
  stats::Rng noise_rng(util::hash_mix(
      util::fnv1a(mix.key(), util::fnv1a(machine.name)), noise_stream));

  result.jobs.reserve(ntypes);
  for (std::size_t i = 0; i < ntypes; ++i) {
    JobTypePerformance j;
    j.type = profiles[i]->type;
    j.instances = counts[i];
    j.cache_mb_per_instance = cache_mb[i];
    j.llc_miss_ratio = miss_ratio[i];
    j.llc_mpki = mpki[i];
    j.core_speed_factor = core_speed[i];
    j.effective_mem_latency_ns =
        machine.mem_latency_ns * lat_mult[i] / profiles[i]->mlp;

    double instance_mips = mips[i];
    // Network throttling only bites jobs that move real traffic.
    if (profiles[i]->network_mbps > 100.0) instance_mips *= net_factor;
    if (options_.enable_noise && options_.noise_sigma > 0.0) {
      instance_mips *= std::exp(options_.noise_sigma * noise_rng.normal());
    }
    j.mips_per_instance = instance_mips;

    // Per-thread IPC at the effective frequency.
    const double per_thread_ips =
        instance_mips * 1e6 /
        (static_cast<double>(profiles[i]->vcpus) * profiles[i]->cpu_utilization);
    j.ipc = per_thread_ips / (freq_hz * core_speed[i]);

    // Top-down decomposition: memory share first, then the profile's
    // intrinsic frontend/bad-speculation split over the remainder; core
    // sharing surfaces as extra backend-core pressure.
    const double core_s = profiles[i]->base_cpi / (freq_hz * core_speed[i]);
    const double mem_s = mpki[i] / 1000.0 *
                         (machine.mem_latency_ns * 1e-9 * lat_mult[i]) /
                         profiles[i]->mlp;
    const double total_s = core_s + mem_s;
    j.td_backend_mem = mem_s / total_s;
    const double non_mem = 1.0 - j.td_backend_mem;
    j.td_frontend = profiles[i]->frontend_bound * non_mem;
    j.td_bad_speculation = profiles[i]->bad_speculation * non_mem;
    const double smt_tax = (1.0 - core_speed[i]) * 0.5;
    j.td_backend_core = std::min(non_mem * (0.15 + smt_tax), non_mem * 0.8);
    j.td_retiring = std::max(
        1.0 - j.td_backend_mem - j.td_frontend - j.td_bad_speculation -
            j.td_backend_core,
        0.02);

    j.mem_bw_gbps_per_instance =
        instance_mips * 1e6 * (mpki[i] / 1000.0) * options_.bytes_per_miss / 1e9;

    result.jobs.push_back(j);

    const double type_mips = instance_mips * counts[i];
    result.total_mips += type_mips;
    if (profiles[i]->high_priority) result.hp_mips += type_mips;
    result.mem_bw_gbps += j.mem_bw_gbps_per_instance * counts[i];
    result.network_mbps += profiles[i]->network_mbps * counts[i] * net_factor;
    result.disk_iops += profiles[i]->disk_iops * counts[i];
  }
  return result;
}

double InterferenceModel::inherent_mips(const MachineConfig& machine,
                                        JobType type) const {
  JobMix solo;
  solo.add(type, 1);
  InterferenceModel noiseless(catalog_, [this] {
    ModelOptions o = options_;
    o.enable_noise = false;
    return o;
  }());
  const ScenarioPerformance perf = noiseless.evaluate(machine, solo);
  return perf.jobs.front().mips_per_instance;
}

}  // namespace flare::dcsim
