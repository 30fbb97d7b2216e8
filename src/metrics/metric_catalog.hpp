// The raw performance/resource metric schema (paper Fig. 6).
//
// Metrics are collected at two levels (§4.2): whole-machine aggregates
// ("Machine.*", every job's contribution) and High-Priority-job aggregates
// ("HP.*", the jobs whose performance the operator manages). The two-level
// scheme is what lets the analysis see both the jobs of interest and the
// environment they run in — e.g. the paper's PC10 ("HP memory-bound on a
// non-backend-bound machine").
//
// The catalog deliberately contains redundant metrics (memory bandwidth in
// GB/s *and* bytes/s, hit ratio *and* miss ratio, ...) because real
// monitoring stacks do; the Analyzer's correlation refinement is expected to
// prune them (100+ -> ~85 in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace flare::metrics {

enum class MetricLevel : std::uint8_t {
  kMachine,  ///< aggregated over every job on the machine
  kHpJobs,   ///< aggregated over High-Priority jobs only
};

enum class MetricCategory : std::uint8_t {
  kCpu,
  kCache,
  kMemory,
  kTopdown,
  kNetwork,
  kDisk,
  kSystem,
  kOccupancy,
};

[[nodiscard]] std::string_view to_string(MetricLevel level);
[[nodiscard]] std::string_view to_string(MetricCategory category);

struct MetricInfo {
  std::size_t index = 0;     ///< dense column index in the database
  std::string name;          ///< fully qualified, e.g. "HP.LLC_MPKI"
  std::string base_name;     ///< e.g. "LLC_MPKI"
  MetricLevel level = MetricLevel::kMachine;
  MetricCategory category = MetricCategory::kCpu;
  std::string unit;
};

/// Immutable metric schema. `standard()` is the catalog the simulated
/// Profiler fills; tests may build reduced catalogs via the constructor.
class MetricCatalog {
 public:
  explicit MetricCatalog(std::vector<MetricInfo> metrics);

  /// The full two-level schema used throughout the reproduction.
  [[nodiscard]] static const MetricCatalog& standard();

  /// `standard()` plus one "Machine.Mix_<job>_Instances" occupancy column per
  /// job type — the paper's §5.3 suggestion for improving *per-job* estimates
  /// ("including the per-job metrics in our method would greatly improve the
  /// estimation accuracy for the job"), offered as an opt-in because adding
  /// per-job dimensions can dilute the general clustering.
  [[nodiscard]] static const MetricCatalog& standard_with_job_mix();

  /// Appends a "<name>_Std" column after every metric of `base` — the §4.1
  /// note about enriching rows with temporal information ("one may include
  /// standard deviations (e.g., IPC: 1.4±0.5)"). The Profiler fills these
  /// with the stddev across its sampling periods.
  [[nodiscard]] static MetricCatalog with_temporal_stddev(const MetricCatalog& base);

  /// True when this metric is a derived temporal-stddev column.
  [[nodiscard]] static bool is_stddev_column(const MetricInfo& info);

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  [[nodiscard]] const MetricInfo& info(std::size_t index) const;
  [[nodiscard]] const std::vector<MetricInfo>& metrics() const { return metrics_; }

  /// Column index by fully qualified name.
  [[nodiscard]] std::optional<std::size_t> index_of(std::string_view name) const;

 private:
  std::vector<MetricInfo> metrics_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace flare::metrics
