#include "metrics/metric_catalog.hpp"

#include <unordered_map>

#include "util/error.hpp"

namespace flare::metrics {
namespace {

struct BaseMetricSpec {
  const char* name;
  MetricCategory category;
  const char* unit;
};

/// Metrics collected at BOTH levels (Machine and HP). Order defines column
/// order. Several entries are deliberate near-duplicates of others (marked)
/// to exercise the refinement step.
constexpr BaseMetricSpec kPerLevelMetrics[] = {
    {"MIPS", MetricCategory::kCpu, "Minstr/s"},
    {"IPC", MetricCategory::kCpu, "instr/cycle"},
    {"CPI", MetricCategory::kCpu, "cycle/instr"},
    {"InstrPerSec", MetricCategory::kCpu, "instr/s"},          // dup: MIPS*1e6
    {"CyclesPerSec", MetricCategory::kCpu, "cycle/s"},
    {"LLC_APKI", MetricCategory::kCache, "acc/Kinstr"},
    {"LLC_MPKI", MetricCategory::kCache, "miss/Kinstr"},
    {"LLC_MissRatio", MetricCategory::kCache, "ratio"},
    {"LLC_HitRatio", MetricCategory::kCache, "ratio"},         // dup: 1 - MissRatio
    {"LLC_MissesPerSec", MetricCategory::kCache, "miss/s"},
    {"LLC_AccessesPerSec", MetricCategory::kCache, "acc/s"},
    {"LLC_Occupancy_MB", MetricCategory::kCache, "MB"},
    {"L2_MPKI", MetricCategory::kCache, "miss/Kinstr"},        // dup: APKI scaled
    {"L1D_MPKI", MetricCategory::kCache, "miss/Kinstr"},
    {"L1I_MPKI", MetricCategory::kCache, "miss/Kinstr"},
    {"TLB_MPKI", MetricCategory::kCache, "miss/Kinstr"},
    {"Branch_MPKI", MetricCategory::kCpu, "miss/Kinstr"},
    {"BranchMispredRatio", MetricCategory::kCpu, "ratio"},
    {"LoadPKI", MetricCategory::kCpu, "loads/Kinstr"},
    {"StorePKI", MetricCategory::kCpu, "stores/Kinstr"},
    {"MemBW_GBps", MetricCategory::kMemory, "GB/s"},
    {"MemBW_BytesPerSec", MetricCategory::kMemory, "B/s"},     // dup: GBps*1e9
    {"MemReadBW_GBps", MetricCategory::kMemory, "GB/s"},       // dup: 0.7*GBps
    {"MemWriteBW_GBps", MetricCategory::kMemory, "GB/s"},      // dup: 0.3*GBps
    {"EffMemLatency_ns", MetricCategory::kMemory, "ns"},
    {"DRAM_Used_GB", MetricCategory::kMemory, "GB"},
    {"TD_FrontendBound", MetricCategory::kTopdown, "frac"},
    {"TD_BadSpeculation", MetricCategory::kTopdown, "frac"},
    {"TD_Retiring", MetricCategory::kTopdown, "frac"},
    {"TD_BackendBound", MetricCategory::kTopdown, "frac"},     // dup: Mem + Core
    {"TD_BackendMem", MetricCategory::kTopdown, "frac"},
    {"TD_BackendCore", MetricCategory::kTopdown, "frac"},
    {"CPU_UtilFrac", MetricCategory::kCpu, "frac"},
    {"VCPUsBusy", MetricCategory::kCpu, "vCPUs"},              // dup: Util*capacity
    {"ALU_UtilFrac", MetricCategory::kCpu, "frac"},
    {"FP_UtilFrac", MetricCategory::kCpu, "frac"},
    {"SpinFrac", MetricCategory::kCpu, "frac"},
    {"Network_Mbps", MetricCategory::kNetwork, "Mb/s"},
    {"Disk_IOPS", MetricCategory::kDisk, "IO/s"},
    {"IOWaitFrac", MetricCategory::kDisk, "frac"},
    {"ContextSwitchesPerSec", MetricCategory::kSystem, "1/s"},
    {"PageFaultsPerSec", MetricCategory::kSystem, "1/s"},
    {"IRQPerSec", MetricCategory::kSystem, "1/s"},
    {"SoftIRQPerSec", MetricCategory::kSystem, "1/s"},         // dup: IRQ scaled
    {"RunQueueLen", MetricCategory::kSystem, "threads"},
    {"UopsPerInstr", MetricCategory::kCpu, "uops/instr"},
    {"AvgLoadLatency_cycles", MetricCategory::kMemory, "cycles"},
    {"PrefetchPerKI", MetricCategory::kCache, "pref/Kinstr"},
    {"StallCycleFrac", MetricCategory::kTopdown, "frac"},      // dup: 1 - Retiring
    {"DispatchStallFrac", MetricCategory::kTopdown, "frac"},   // dup: BackendCore
    {"MemQueueOccupancy", MetricCategory::kMemory, "entries"},
    {"KernelTimeFrac", MetricCategory::kSystem, "frac"},
    {"UserTimeFrac", MetricCategory::kCpu, "frac"},
};

/// Metrics that only exist at machine scope.
constexpr BaseMetricSpec kMachineOnlyMetrics[] = {
    {"TotalOccupancy_vCPU", MetricCategory::kOccupancy, "vCPUs"},
    {"HPOccupancy_vCPU", MetricCategory::kOccupancy, "vCPUs"},
    {"LPOccupancy_vCPU", MetricCategory::kOccupancy, "vCPUs"}, // dup: Total - HP
    {"FreeVCPUs", MetricCategory::kOccupancy, "vCPUs"},        // dup: cap - Total
    {"NumContainers", MetricCategory::kOccupancy, "count"},    // dup: Total / 4
    {"NumHPContainers", MetricCategory::kOccupancy, "count"},  // dup: HP / 4
    {"NumLPContainers", MetricCategory::kOccupancy, "count"},  // dup: LP / 4
    {"DRAM_UtilFrac", MetricCategory::kMemory, "frac"},
    {"MemBW_UtilFrac", MetricCategory::kMemory, "frac"},
    {"MemLatencyMultiplier", MetricCategory::kMemory, "x"},
    {"NetworkUtilFrac", MetricCategory::kNetwork, "frac"},
    {"Freq_GHz", MetricCategory::kCpu, "GHz"},
    {"SMTSharedFrac", MetricCategory::kCpu, "frac"},
    {"Power_W", MetricCategory::kSystem, "W"},
    {"Temperature_C", MetricCategory::kSystem, "C"},           // dup: affine(Power)
    {"FanSpeed_RPM", MetricCategory::kSystem, "RPM"},          // dup: affine(Temp)
};

}  // namespace

std::string_view to_string(MetricLevel level) {
  switch (level) {
    case MetricLevel::kMachine: return "Machine";
    case MetricLevel::kHpJobs: return "HP";
  }
  return "?";
}

std::string_view to_string(MetricCategory category) {
  switch (category) {
    case MetricCategory::kCpu: return "CPU";
    case MetricCategory::kCache: return "Cache";
    case MetricCategory::kMemory: return "Memory";
    case MetricCategory::kTopdown: return "Topdown";
    case MetricCategory::kNetwork: return "Network";
    case MetricCategory::kDisk: return "Disk";
    case MetricCategory::kSystem: return "System";
    case MetricCategory::kOccupancy: return "Occupancy";
  }
  return "?";
}

MetricCatalog::MetricCatalog(std::vector<MetricInfo> metrics)
    : metrics_(std::move(metrics)) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    ensure(metrics_[i].index == i, "MetricCatalog: indices must be dense and ordered");
    index_.emplace(metrics_[i].name, i);
  }
}

const MetricCatalog& MetricCatalog::standard() {
  static const MetricCatalog kStandard = [] {
    std::vector<MetricInfo> metrics;
    std::size_t index = 0;
    for (const MetricLevel level : {MetricLevel::kMachine, MetricLevel::kHpJobs}) {
      for (const BaseMetricSpec& spec : kPerLevelMetrics) {
        MetricInfo m;
        m.index = index++;
        m.base_name = spec.name;
        m.name = std::string(to_string(level)) + "." + spec.name;
        m.level = level;
        m.category = spec.category;
        m.unit = spec.unit;
        metrics.push_back(std::move(m));
      }
    }
    for (const BaseMetricSpec& spec : kMachineOnlyMetrics) {
      MetricInfo m;
      m.index = index++;
      m.base_name = spec.name;
      m.name = std::string("Machine.") + spec.name;
      m.level = MetricLevel::kMachine;
      m.category = spec.category;
      m.unit = spec.unit;
      metrics.push_back(std::move(m));
    }
    return MetricCatalog(std::move(metrics));
  }();
  return kStandard;
}

const MetricCatalog& MetricCatalog::standard_with_job_mix() {
  static const MetricCatalog kCatalog = [] {
    std::vector<MetricInfo> metrics = standard().metrics();
    // Job codes are fixed by dcsim's catalog; keep the dependency one-way by
    // naming the columns here and letting the counter synthesizer fill them
    // from the scenario mix.
    static constexpr const char* kJobCodes[] = {
        "DA",  "DC",    "DS",         "GA",        "IA",      "MS", "WSC",
        "WSV", "perlbench", "sjeng", "libquantum", "xalancbmk", "omnetpp", "mcf"};
    for (const char* code : kJobCodes) {
      MetricInfo m;
      m.index = metrics.size();
      m.base_name = std::string("Mix_") + code + "_Instances";
      m.name = "Machine." + m.base_name;
      m.level = MetricLevel::kMachine;
      m.category = MetricCategory::kOccupancy;
      m.unit = "count";
      metrics.push_back(std::move(m));
    }
    return MetricCatalog(std::move(metrics));
  }();
  return kCatalog;
}

MetricCatalog MetricCatalog::with_temporal_stddev(const MetricCatalog& base) {
  std::vector<MetricInfo> metrics = base.metrics();
  const std::size_t original = metrics.size();
  for (std::size_t i = 0; i < original; ++i) {
    ensure(!is_stddev_column(metrics[i]),
           "with_temporal_stddev: catalog is already enriched");
    MetricInfo m = metrics[i];
    m.index = metrics.size();
    m.base_name += "_Std";
    m.name += "_Std";
    metrics.push_back(std::move(m));
  }
  return MetricCatalog(std::move(metrics));
}

bool MetricCatalog::is_stddev_column(const MetricInfo& info) {
  constexpr std::string_view kSuffix = "_Std";
  return info.name.size() > kSuffix.size() &&
         info.name.compare(info.name.size() - kSuffix.size(), kSuffix.size(),
                           kSuffix) == 0;
}

const MetricInfo& MetricCatalog::info(std::size_t index) const {
  ensure(index < metrics_.size(), "MetricCatalog::info: index out of range");
  return metrics_[index];
}

std::optional<std::size_t> MetricCatalog::index_of(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace flare::metrics
