#include "dcsim/counters.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/seed_stream.hpp"

namespace flare::dcsim {
namespace {

/// Aggregated view over a subset of the scenario's jobs (all vs HP-only).
struct LevelAggregate {
  double mips = 0.0;          // M instr/s
  double cycles_per_sec = 0.0;
  double busy_threads = 0.0;
  double llc_apki = 0.0;      // instruction-weighted
  double llc_mpki = 0.0;
  double llc_miss_ratio = 0.0;
  double llc_occupancy_mb = 0.0;
  double l1d_mpki = 0.0;
  double l1i_mpki = 0.0;
  double tlb_mpki = 0.0;
  double branch_mpki = 0.0;
  double load_pki = 0.0;
  double store_pki = 0.0;
  double mem_bw_gbps = 0.0;
  double eff_mem_latency_ns = 0.0;
  double dram_gb = 0.0;
  double td_fe = 0.0, td_bs = 0.0, td_ret = 0.0, td_mem = 0.0, td_core = 0.0;
  double alu_util = 0.0;
  double fp_util = 0.0;
  double spin = 0.0;
  double uops_per_instr = 0.0;
  double prefetch_pki = 0.0;
  double br_mispred_ratio = 0.0;
  double context_switches = 0.0;
  double network_mbps = 0.0;
  double disk_iops = 0.0;
};

LevelAggregate aggregate(const ScenarioPerformance& perf, const JobCatalog& catalog,
                         const MachineConfig& machine, bool hp_only) {
  LevelAggregate a;
  const double freq_hz = machine.max_freq_ghz * 1e9;
  double instr_weight = 0.0;

  for (const JobTypePerformance& j : perf.jobs) {
    const JobProfile& p = catalog.profile(j.type);
    if (hp_only && !p.high_priority) continue;
    const double n = static_cast<double>(j.instances);
    const double type_mips = j.mips_per_instance * n;  // M instr/s
    const double w = type_mips;

    a.mips += type_mips;
    const double threads = n * static_cast<double>(p.vcpus) * p.cpu_utilization;
    a.busy_threads += threads;
    a.cycles_per_sec += threads * freq_hz * j.core_speed_factor;
    a.llc_occupancy_mb += j.cache_mb_per_instance * n;
    a.mem_bw_gbps += j.mem_bw_gbps_per_instance * n;
    a.dram_gb += p.dram_gb * n;
    a.network_mbps += p.network_mbps * n;
    a.disk_iops += p.disk_iops * n;

    // Instruction-weighted per-KI and fraction metrics.
    a.llc_apki += w * p.llc_apki;
    a.llc_mpki += w * j.llc_mpki;
    a.llc_miss_ratio += w * j.llc_miss_ratio;
    a.l1d_mpki += w * (1.2 * p.llc_apki + 0.8 * p.branch_mpki +
                       0.2 * std::sqrt(p.working_set_mb));
    a.l1i_mpki += w * p.l1i_mpki;
    a.tlb_mpki += w * 0.04 * std::pow(p.working_set_mb, 0.7);
    a.branch_mpki += w * p.branch_mpki;
    a.load_pki += w * (250.0 + 2.0 * p.llc_apki + 40.0 * p.fp_fraction);
    a.store_pki += w * (100.0 + 30.0 * (1.0 - p.fp_fraction) + 12.0 * p.branch_mpki);
    a.eff_mem_latency_ns += w * j.effective_mem_latency_ns;
    a.td_fe += w * j.td_frontend;
    a.td_bs += w * j.td_bad_speculation;
    a.td_ret += w * j.td_retiring;
    a.td_mem += w * j.td_backend_mem;
    a.td_core += w * j.td_backend_core;
    a.alu_util += w * j.td_retiring * (1.0 - p.fp_fraction);
    a.fp_util += w * j.td_retiring * p.fp_fraction;
    a.spin += w * p.spin_fraction;
    a.uops_per_instr += w * (1.05 + 0.5 * p.fp_fraction + 0.02 * p.branch_mpki);
    a.prefetch_pki += w * (0.3 * p.llc_apki * p.mlp);
    a.br_mispred_ratio += w * (p.branch_mpki / (90.0 + 60.0 * p.base_cpi));
    // Interactive services context-switch on request boundaries; batch pins.
    a.context_switches += n * (p.network_mbps * 1.2 + p.disk_iops * 0.4 +
                               1600.0 * (1.0 - p.cpu_utilization) *
                                   static_cast<double>(p.vcpus));
    instr_weight += w;
  }

  if (instr_weight > 0.0) {
    for (double* field :
         {&a.llc_apki, &a.llc_mpki, &a.llc_miss_ratio, &a.l1d_mpki, &a.l1i_mpki,
          &a.tlb_mpki, &a.branch_mpki, &a.load_pki, &a.store_pki,
          &a.eff_mem_latency_ns, &a.td_fe, &a.td_bs, &a.td_ret, &a.td_mem,
          &a.td_core, &a.alu_util, &a.fp_util, &a.spin, &a.uops_per_instr,
          &a.prefetch_pki, &a.br_mispred_ratio}) {
      *field /= instr_weight;
    }
  }
  return a;
}

/// Values synthesize_counters computes, by slot: the per-level metrics of
/// the Machine level, then of the HP level, the machine-only metrics, then
/// one mix count per job type.
constexpr std::size_t kLevelMetrics = 53;
constexpr std::size_t kMachineOnlyMetrics = 16;
constexpr std::size_t kProducedMetrics =
    2 * kLevelMetrics + kMachineOnlyMetrics + kNumJobTypes;

/// Hands the 53 per-level base metrics of one level to `set(base, value)`,
/// always in this order: a metric's slot is its position in it.
template <typename Set>
void fill_level(const LevelAggregate& a, const ScenarioPerformance& perf,
                const MachineConfig& machine, Set&& set) {
  const double instr_per_sec = a.mips * 1e6;
  const double ipc = a.cycles_per_sec > 0.0 ? instr_per_sec / a.cycles_per_sec : 0.0;

  set("MIPS", a.mips);
  set("IPC", ipc);
  set("CPI", ipc > 0.0 ? 1.0 / ipc : 0.0);
  set("InstrPerSec", instr_per_sec);
  set("CyclesPerSec", a.cycles_per_sec);
  set("LLC_APKI", a.llc_apki);
  set("LLC_MPKI", a.llc_mpki);
  set("LLC_MissRatio", a.llc_miss_ratio);
  set("LLC_HitRatio", 1.0 - a.llc_miss_ratio);
  set("LLC_MissesPerSec", instr_per_sec * a.llc_mpki / 1000.0);
  set("LLC_AccessesPerSec", instr_per_sec * a.llc_apki / 1000.0);
  set("LLC_Occupancy_MB", a.llc_occupancy_mb);
  set("L2_MPKI", 1.15 * a.llc_apki);
  set("L1D_MPKI", a.l1d_mpki);
  set("L1I_MPKI", a.l1i_mpki);
  set("TLB_MPKI", a.tlb_mpki);
  set("Branch_MPKI", a.branch_mpki);
  set("BranchMispredRatio", a.br_mispred_ratio);
  set("LoadPKI", a.load_pki);
  set("StorePKI", a.store_pki);
  set("MemBW_GBps", a.mem_bw_gbps);
  set("MemBW_BytesPerSec", a.mem_bw_gbps * 1e9);
  set("MemReadBW_GBps", 0.7 * a.mem_bw_gbps);
  set("MemWriteBW_GBps", 0.3 * a.mem_bw_gbps);
  set("EffMemLatency_ns", a.eff_mem_latency_ns);
  set("DRAM_Used_GB", a.dram_gb);
  set("TD_FrontendBound", a.td_fe);
  set("TD_BadSpeculation", a.td_bs);
  set("TD_Retiring", a.td_ret);
  set("TD_BackendBound", a.td_mem + a.td_core);
  set("TD_BackendMem", a.td_mem);
  set("TD_BackendCore", a.td_core);
  set("CPU_UtilFrac",
      a.busy_threads / static_cast<double>(machine.scheduling_vcpus()));
  set("VCPUsBusy", a.busy_threads);
  set("ALU_UtilFrac", a.alu_util);
  set("FP_UtilFrac", a.fp_util);
  set("SpinFrac", a.spin);
  set("Network_Mbps", a.network_mbps);
  set("Disk_IOPS", a.disk_iops);
  set("IOWaitFrac", a.disk_iops / (machine.disk_kiops * 1000.0));

  // /proc-style system counters.
  const double oversub = std::max(
      perf.busy_threads / static_cast<double>(machine.hardware_threads()) - 1.0, 0.0);
  set("ContextSwitchesPerSec",
      a.context_switches + 3000.0 * oversub * a.busy_threads);
  set("PageFaultsPerSec", a.dram_gb * 25.0);
  const double irq = a.network_mbps * 12.0 + a.disk_iops * 1.5;
  set("IRQPerSec", irq);
  set("SoftIRQPerSec", 0.6 * irq);
  set("RunQueueLen",
      std::max(perf.busy_threads - static_cast<double>(machine.hardware_threads()),
               0.0) *
          (perf.busy_threads > 0.0 ? a.busy_threads / perf.busy_threads : 0.0));

  set("UopsPerInstr", a.uops_per_instr);
  set("AvgLoadLatency_cycles",
      4.0 + a.eff_mem_latency_ns * machine.max_freq_ghz * a.llc_miss_ratio);
  set("PrefetchPerKI", a.prefetch_pki);
  set("StallCycleFrac", 1.0 - a.td_ret);
  set("DispatchStallFrac", 0.05 + 0.8 * a.td_core);
  set("MemQueueOccupancy",
      a.mem_bw_gbps / machine.total_mem_bw_gbps() * perf.mem_latency_multiplier *
          24.0);
  const double kernel =
      0.015 + (a.network_mbps * 0.9 + a.disk_iops * 0.35) /
                  (a.busy_threads * 3000.0 + 1.0);
  set("KernelTimeFrac", kernel);
  set("UserTimeFrac",
      a.busy_threads / static_cast<double>(machine.scheduling_vcpus()) *
          (1.0 - kernel));
}

/// Hands the machine-only metrics to `set(base, value)`, in slot order.
template <typename Set>
void fill_machine_only(const LevelAggregate& machine_agg,
                       const ScenarioPerformance& perf,
                       const MachineConfig& machine, Set&& set) {
  const double total_vcpu = static_cast<double>(perf.mix.vcpus());
  const double hp_vcpu = static_cast<double>(perf.mix.hp_vcpus());
  set("TotalOccupancy_vCPU", total_vcpu);
  set("HPOccupancy_vCPU", hp_vcpu);
  set("LPOccupancy_vCPU", total_vcpu - hp_vcpu);
  set("FreeVCPUs", static_cast<double>(machine.scheduling_vcpus()) - total_vcpu);
  set("NumContainers", static_cast<double>(perf.mix.total_instances()));
  set("NumHPContainers", static_cast<double>(perf.mix.hp_instances()));
  set("NumLPContainers", static_cast<double>(perf.mix.lp_instances()));
  set("DRAM_UtilFrac", machine_agg.dram_gb / machine.dram_gb);
  set("MemBW_UtilFrac", perf.mem_bw_utilization);
  set("MemLatencyMultiplier", perf.mem_latency_multiplier);
  set("NetworkUtilFrac", perf.network_utilization);
  set("Freq_GHz", machine.max_freq_ghz);
  const double cores = static_cast<double>(machine.total_cores());
  set("SMTSharedFrac",
      machine.smt_enabled && perf.busy_threads > cores
          ? std::min(2.0 * (perf.busy_threads - cores) / perf.busy_threads, 1.0)
          : 0.0);
  const double power = 75.0 + 145.0 * perf.cpu_utilization +
                       28.0 * std::min(perf.mem_bw_utilization, 1.2) +
                       0.3 * perf.llc_used_mb;
  set("Power_W", power);
  const double temperature = 34.0 + 0.11 * power;
  set("Temperature_C", temperature);
  set("FanSpeed_RPM", 1800.0 + 42.0 * temperature);
}

/// Slot of every fully qualified metric name the synthesizer produces. The
/// names are recorded by running the fill functions once with a sink that
/// keeps only names, so a name can never drift from its value's slot.
const std::unordered_map<std::string, std::size_t>& slot_by_name() {
  static const auto kSlots = [] {
    std::vector<std::string> names;
    const LevelAggregate none;
    const ScenarioPerformance perf;
    for (const std::string prefix : {"Machine.", "HP."}) {
      fill_level(none, perf, perf.machine, [&](const char* base, double) {
        names.push_back(prefix + base);
      });
    }
    fill_machine_only(none, perf, perf.machine, [&](const char* base, double) {
      names.push_back(std::string("Machine.") + base);
    });
    // Per-job mix occupancy (consumed only by the opt-in §5.3 schema
    // standard_with_job_mix(); other schemas leave these slots unread).
    for (const JobType type : all_job_types()) {
      names.push_back("Machine.Mix_" + std::string(job_code(type)) + "_Instances");
    }
    ensure(names.size() == kProducedMetrics,
           "synthesize_counters: produced-metric count out of sync");
    std::unordered_map<std::string, std::size_t> slots;
    for (std::size_t i = 0; i < names.size(); ++i) slots[names[i]] = i;
    return slots;
  }();
  return kSlots;
}

}  // namespace

CounterPlan::CounterPlan(const metrics::MetricCatalog& schema) {
  const std::unordered_map<std::string, std::size_t>& slots = slot_by_name();
  entries_.reserve(schema.size());
  for (const metrics::MetricInfo& info : schema.metrics()) {
    const auto it = slots.find(info.name);
    ensure(it != slots.end(),
           "synthesize_counters: schema metric not produced: " + info.name);
    Entry entry;
    entry.slot = it->second;
    entry.base_hash = util::fnv1a(info.base_name);
    entry.level = info.level == metrics::MetricLevel::kHpJobs ? 1 : 0;
    entry.category = static_cast<std::uint8_t>(info.category);
    entry.exact = info.category == metrics::MetricCategory::kOccupancy;
    entries_.push_back(entry);
  }
}

std::vector<double> synthesize_counters(const ScenarioPerformance& perf,
                                        const JobCatalog& catalog,
                                        const metrics::MetricCatalog& schema,
                                        CounterOptions options,
                                        std::uint64_t noise_stream) {
  return synthesize_counters(perf, catalog, CounterPlan(schema), options,
                             noise_stream);
}

std::vector<double> synthesize_counters(const ScenarioPerformance& perf,
                                        const JobCatalog& catalog,
                                        const CounterPlan& plan,
                                        CounterOptions options,
                                        std::uint64_t noise_stream) {
  const MachineConfig& machine = perf.machine;
  std::array<double, kProducedMetrics> values;
  double* out = values.data();
  const auto put = [&out](const char*, double value) { *out++ = value; };
  const LevelAggregate machine_agg = aggregate(perf, catalog, machine, false);
  const LevelAggregate hp_agg = aggregate(perf, catalog, machine, true);
  fill_level(machine_agg, perf, machine, put);
  fill_level(hp_agg, perf, machine, put);
  fill_machine_only(machine_agg, perf, machine, put);
  for (const JobType type : all_job_types()) {
    *out++ = static_cast<double>(perf.mix.count(type));
  }

  // Order per the schema and overlay measurement noise. Structural
  // occupancy counts stay exact — a real monitor reads them losslessly.
  stats::Rng rng(util::hash_mix(
      util::fnv1a(perf.mix.key(), util::fnv1a(machine.name, 0xC0117E45u)),
      noise_stream));

  // One jitter factor per metric family (shared by the Machine and HP views
  // of the family — they observe the same underlying phase behaviour).
  constexpr std::size_t kNumCategories = 8;
  constexpr std::size_t kNumLevels = 2;
  double family_factor[kNumLevels][kNumCategories];
  for (std::size_t cat = 0; cat < kNumCategories; ++cat) {
    const bool jitter = options.enable_noise && options.family_jitter_sigma > 0.0;
    // Shared phase component (both views observe the same machine) plus a
    // level-specific component (HP-only phases vs the whole-machine blend).
    const double shared = jitter ? options.family_jitter_sigma * rng.normal() : 0.0;
    for (std::size_t lvl = 0; lvl < kNumLevels; ++lvl) {
      const double own =
          jitter ? 0.6 * options.family_jitter_sigma * rng.normal() : 0.0;
      family_factor[lvl][cat] = std::exp(shared + own);
    }
  }

  // Sub-family latents, keyed by base metric name so the Machine and HP
  // views of a counter share the same latent (preserving their correlation).
  std::vector<double> subgroup_factor(
      static_cast<std::size_t>(std::max(options.subgroup_count, 1)), 1.0);
  if (options.enable_noise && options.subgroup_jitter_sigma > 0.0) {
    for (double& f : subgroup_factor) {
      f = std::exp(options.subgroup_jitter_sigma * rng.normal());
    }
  }

  const std::vector<CounterPlan::Entry>& entries = plan.entries();
  std::vector<double> row(entries.size(), 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CounterPlan::Entry& entry = entries[i];
    double v = values[entry.slot];
    if (options.enable_noise && !entry.exact) {
      v *= family_factor[entry.level][entry.category];
      v *= subgroup_factor[entry.base_hash % subgroup_factor.size()];
      if (options.measurement_noise_sigma > 0.0) {
        v *= std::exp(options.measurement_noise_sigma * rng.normal());
      }
    }
    row[i] = v;
  }
  return row;
}

FaultOptions FaultOptions::uniform(double rate, std::uint64_t seed) {
  ensure(rate >= 0.0 && rate <= 1.0,
         "FaultOptions::uniform: rate must be in [0, 1]");
  FaultOptions options;
  options.enabled = rate > 0.0;
  options.nan_rate = rate;
  options.stuck_rate = rate;
  options.multiplex_rate = rate;
  options.sample_drop_rate = rate;
  options.row_loss_rate = rate;
  options.seed = seed;
  return options;
}

CounterFaultModel::CounterFaultModel(FaultOptions options)
    : options_(options) {
  const auto valid_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  ensure(valid_rate(options_.nan_rate) && valid_rate(options_.stuck_rate) &&
             valid_rate(options_.multiplex_rate) &&
             valid_rate(options_.sample_drop_rate) &&
             valid_rate(options_.row_loss_rate),
         "CounterFaultModel: fault rates must be in [0, 1]");
  ensure(options_.nan_rate + options_.stuck_rate + options_.multiplex_rate <=
             1.0,
         "CounterFaultModel: per-reading fault rates must sum to <= 1");
  ensure(options_.multiplex_sigma >= 0.0,
         "CounterFaultModel: multiplex_sigma must be non-negative");
  active_ = options_.enabled &&
            (options_.nan_rate > 0.0 || options_.stuck_rate > 0.0 ||
             options_.multiplex_rate > 0.0 || options_.sample_drop_rate > 0.0 ||
             options_.row_loss_rate > 0.0);
}

std::uint64_t CounterFaultModel::stream(std::string_view scenario_key,
                                        std::uint64_t salt) const {
  return util::derive_stream(scenario_key, options_.seed, salt);
}

bool CounterFaultModel::lose_row(std::string_view scenario_key) const {
  if (!active_ || options_.row_loss_rate <= 0.0) return false;
  stats::Rng rng(stream(scenario_key, 0xB01DFACEull));
  return rng.uniform() < options_.row_loss_rate;
}

bool CounterFaultModel::drop_sample(std::string_view scenario_key,
                                    int sample_index, int attempt) const {
  if (!active_ || options_.sample_drop_rate <= 0.0) return false;
  stats::Rng rng(stream(scenario_key,
                        0xD80Dull + 7919ull * static_cast<std::uint64_t>(
                                                  sample_index) +
                            static_cast<std::uint64_t>(attempt)));
  return rng.uniform() < options_.sample_drop_rate;
}

void CounterFaultModel::corrupt(std::vector<double>& sample,
                                const std::vector<double>& last_observed,
                                std::string_view scenario_key, int sample_index,
                                int attempt) const {
  if (!active_) return;
  const double glitch_rate =
      options_.nan_rate + options_.stuck_rate + options_.multiplex_rate;
  if (glitch_rate <= 0.0) return;
  ensure(last_observed.empty() || last_observed.size() == sample.size(),
         "CounterFaultModel::corrupt: last_observed size mismatch");
  stats::Rng rng(stream(scenario_key,
                        0xC0FEull + 104729ull * static_cast<std::uint64_t>(
                                                    sample_index) +
                            static_cast<std::uint64_t>(attempt)));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    // One uniform draw per metric partitioned across the fault classes keeps
    // the stream layout stable when individual rates change.
    const double u = rng.uniform();
    const double flavour = rng.uniform();
    if (u < options_.nan_rate) {
      sample[i] = flavour < 0.5
                      ? std::numeric_limits<double>::quiet_NaN()
                      : (flavour < 0.75
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity());
    } else if (u < options_.nan_rate + options_.stuck_rate) {
      if (!last_observed.empty() && std::isfinite(last_observed[i])) {
        sample[i] = last_observed[i];
      }
    } else if (u < glitch_rate) {
      sample[i] *= std::exp(options_.multiplex_sigma *
                            (2.0 * flavour - 1.0) * 1.7320508075688772);
    }
  }
}

}  // namespace flare::dcsim
