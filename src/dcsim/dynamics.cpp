#include "dcsim/dynamics.hpp"

#include <cmath>
#include <numbers>

#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/seed_stream.hpp"

namespace flare::dcsim {
namespace {

// Substream salts for the episode schedules and the counter overlays. The
// overlay seeds are load-bearing for trace round-trips: a tagged row's
// distortion is a pure function of (metric name, version/episode id), so
// re-profiling an archived tagged trace reproduces the same bits.
constexpr std::uint64_t kFlashScheduleSalt = 0xF1A5Cull;
constexpr std::uint64_t kAnomalyScheduleSalt = 0xA40Ful;
constexpr std::uint64_t kUpgradeOverlaySeed = 0x0B6D5EEDull;
constexpr std::uint64_t kAnomalyOverlaySeed = 0xA40FD157ull;

/// Symmetric unit deviate in [−1, 1) from a derived stream: the shared
/// per-metric distortion direction of one version / one episode.
double unit_deviate(std::string_view key, std::uint64_t seed,
                    std::uint64_t salt) {
  return 2.0 * util::uniform_from_stream(util::derive_stream(key, seed, salt)) -
         1.0;
}

bool scoped_out(const std::string& scope, std::string_view shape) {
  return !scope.empty() && scope != shape;
}

}  // namespace

bool WorkloadDynamics::any() const {
  return diurnal.enabled || flash.enabled || upgrade.enabled || anomaly.enabled;
}

WorkloadDynamics WorkloadDynamics::for_shape(std::string_view shape) const {
  WorkloadDynamics scoped = *this;
  if (scoped_out(scoped.diurnal.shape, shape)) scoped.diurnal.enabled = false;
  if (scoped_out(scoped.flash.shape, shape)) scoped.flash.enabled = false;
  if (scoped_out(scoped.upgrade.shape, shape)) scoped.upgrade.enabled = false;
  if (scoped_out(scoped.anomaly.shape, shape)) scoped.anomaly.enabled = false;
  return scoped;
}

std::vector<std::string> WorkloadDynamics::shape_scopes() const {
  std::vector<std::string> scopes;
  const auto add = [&scopes](bool enabled, const std::string& shape) {
    if (!enabled || shape.empty()) return;
    for (const std::string& s : scopes) {
      if (s == shape) return;
    }
    scopes.push_back(shape);
  };
  add(diurnal.enabled, diurnal.shape);
  add(flash.enabled, flash.shape);
  add(upgrade.enabled, upgrade.shape);
  add(anomaly.enabled, anomaly.shape);
  return scopes;
}

namespace {

struct SpecEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kv;
};

[[noreturn]] void spec_error(std::string_view spec, const std::string& what) {
  throw ParseError("dynamics spec '" + std::string(spec) + "': " + what);
}

double spec_number(std::string_view spec, const SpecEntry& entry,
                   const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed != value.size() || !std::isfinite(v)) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    spec_error(spec, "entry '" + entry.name + "': bad value for '" + key +
                         "' — offending token '" + value + "'");
  }
}

SpecEntry parse_entry(std::string_view spec, std::string_view entry_text) {
  SpecEntry entry;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= entry_text.size()) {
    const std::size_t colon = entry_text.find(':', pos);
    const std::string_view token = entry_text.substr(
        pos, colon == std::string_view::npos ? std::string_view::npos
                                             : colon - pos);
    if (first) {
      if (token.empty()) {
        spec_error(spec, "empty generator name — expected one of diurnal, "
                         "flash, upgrade, anomaly");
      }
      entry.name = std::string(token);
      first = false;
    } else {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0 ||
          eq == token.size() - 1) {
        spec_error(spec, "entry '" + entry.name +
                             "': expected key=value — offending token '" +
                             std::string(token) + "'");
      }
      entry.kv.emplace_back(std::string(token.substr(0, eq)),
                            std::string(token.substr(eq + 1)));
    }
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  return entry;
}

}  // namespace

WorkloadDynamics parse_dynamics_spec(std::string_view spec) {
  WorkloadDynamics dynamics;
  if (spec.empty()) spec_error(spec, "spec is empty");
  bool seen_diurnal = false, seen_flash = false, seen_upgrade = false,
       seen_anomaly = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view entry_text = spec.substr(
        pos,
        comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    if (entry_text.empty()) {
      spec_error(spec, "empty entry — expected name[:key=value...]");
    }
    const SpecEntry entry = parse_entry(spec, entry_text);
    const auto number = [&](const std::string& key, const std::string& value) {
      return spec_number(spec, entry, key, value);
    };
    const auto check_range = [&](bool ok, const std::string& key,
                                 const std::string& value,
                                 const std::string& expected) {
      if (!ok) {
        spec_error(spec, "entry '" + entry.name + "': '" + key + "' must be " +
                             expected + " — offending token '" + value + "'");
      }
    };
    const auto unknown_key = [&](const std::string& key) {
      spec_error(spec, "entry '" + entry.name + "': unknown key '" + key + "'");
    };
    if (entry.name == "diurnal") {
      if (seen_diurnal) spec_error(spec, "duplicate entry 'diurnal'");
      seen_diurnal = true;
      dynamics.diurnal.enabled = true;
      for (const auto& [key, value] : entry.kv) {
        if (key == "shape") {
          dynamics.diurnal.shape = value;
        } else if (key == "period") {
          dynamics.diurnal.period_hours = number(key, value);
          check_range(dynamics.diurnal.period_hours > 0.0, key, value,
                      "positive");
        } else if (key == "amp") {
          dynamics.diurnal.arrival_amplitude = number(key, value);
          check_range(dynamics.diurnal.arrival_amplitude >= 0.0 &&
                          dynamics.diurnal.arrival_amplitude < 1.0,
                      key, value, "in [0, 1)");
        } else if (key == "hp_amp") {
          dynamics.diurnal.hp_amplitude = number(key, value);
          check_range(dynamics.diurnal.hp_amplitude >= 0.0 &&
                          dynamics.diurnal.hp_amplitude <= 1.0,
                      key, value, "in [0, 1]");
        } else if (key == "phase") {
          dynamics.diurnal.phase_hours = number(key, value);
        } else {
          unknown_key(key);
        }
      }
    } else if (entry.name == "flash") {
      if (seen_flash) spec_error(spec, "duplicate entry 'flash'");
      seen_flash = true;
      dynamics.flash.enabled = true;
      for (const auto& [key, value] : entry.kv) {
        if (key == "shape") {
          dynamics.flash.shape = value;
        } else if (key == "rate") {
          dynamics.flash.episodes_per_khour = number(key, value);
          check_range(dynamics.flash.episodes_per_khour >= 0.0, key, value,
                      "non-negative");
        } else if (key == "dur") {
          dynamics.flash.duration_hours = number(key, value);
          check_range(dynamics.flash.duration_hours > 0.0, key, value,
                      "positive");
        } else if (key == "mult") {
          dynamics.flash.arrival_multiplier = number(key, value);
          check_range(dynamics.flash.arrival_multiplier >= 1.0, key, value,
                      ">= 1");
        } else if (key == "short") {
          dynamics.flash.short_job_factor = number(key, value);
          check_range(dynamics.flash.short_job_factor > 0.0 &&
                          dynamics.flash.short_job_factor <= 1.0,
                      key, value, "in (0, 1]");
        } else {
          unknown_key(key);
        }
      }
    } else if (entry.name == "upgrade") {
      if (seen_upgrade) spec_error(spec, "duplicate entry 'upgrade'");
      seen_upgrade = true;
      dynamics.upgrade.enabled = true;
      for (const auto& [key, value] : entry.kv) {
        if (key == "shape") {
          dynamics.upgrade.shape = value;
        } else if (key == "at") {
          dynamics.upgrade.at_hours = number(key, value);
          check_range(dynamics.upgrade.at_hours >= 0.0, key, value,
                      "non-negative");
        } else if (key == "frac") {
          dynamics.upgrade.migrated_fraction = number(key, value);
          check_range(dynamics.upgrade.migrated_fraction >= 0.0 &&
                          dynamics.upgrade.migrated_fraction <= 1.0,
                      key, value, "in [0, 1]");
        } else if (key == "shift") {
          dynamics.upgrade.shift = number(key, value);
          check_range(dynamics.upgrade.shift >= 0.0, key, value,
                      "non-negative");
        } else {
          unknown_key(key);
        }
      }
    } else if (entry.name == "anomaly") {
      if (seen_anomaly) spec_error(spec, "duplicate entry 'anomaly'");
      seen_anomaly = true;
      dynamics.anomaly.enabled = true;
      for (const auto& [key, value] : entry.kv) {
        if (key == "shape") {
          dynamics.anomaly.shape = value;
        } else if (key == "rate") {
          dynamics.anomaly.episodes_per_khour = number(key, value);
          check_range(dynamics.anomaly.episodes_per_khour >= 0.0, key, value,
                      "non-negative");
        } else if (key == "dur") {
          dynamics.anomaly.duration_hours = number(key, value);
          check_range(dynamics.anomaly.duration_hours > 0.0, key, value,
                      "positive");
        } else if (key == "intensity") {
          dynamics.anomaly.intensity = number(key, value);
          check_range(dynamics.anomaly.intensity >= 0.0, key, value,
                      "non-negative");
        } else if (key == "frac") {
          dynamics.anomaly.machine_fraction = number(key, value);
          check_range(dynamics.anomaly.machine_fraction > 0.0 &&
                          dynamics.anomaly.machine_fraction <= 1.0,
                      key, value, "in (0, 1]");
        } else {
          unknown_key(key);
        }
      }
    } else {
      spec_error(spec, "unknown generator '" + entry.name +
                           "' — expected diurnal, flash, upgrade, or anomaly");
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return dynamics;
}

DynamicsPlan::DynamicsPlan(const WorkloadDynamics& dynamics, int num_machines,
                           double horizon_hours)
    : dynamics_(dynamics), active_(dynamics.any()) {
  ensure(num_machines > 0, "DynamicsPlan: need machines");
  if (!active_) return;
  const double horizon = dynamics_.start_hour + horizon_hours;

  if (dynamics_.upgrade.enabled) {
    migrated_machines_ = static_cast<int>(std::lround(
        dynamics_.upgrade.migrated_fraction * static_cast<double>(num_machines)));
  }

  // Episode schedules: sequential exponential gaps from a dedicated RNG
  // seeded by dynamics.seed only, generated from absolute hour 0 — a batch
  // window starting later regenerates the identical prefix, so episode
  // timelines are consistent across streaming windows.
  const auto schedule = [&](double per_khour, double duration,
                            std::uint64_t salt, double machine_fraction,
                            std::vector<Episode>& out) {
    if (per_khour <= 0.0) return;
    stats::Rng rng(util::hash_mix(dynamics_.seed, salt));
    double t = 0.0;
    while (true) {
      t += rng.exponential(per_khour / 1000.0);
      if (t >= horizon) break;
      Episode e;
      e.start = t;
      e.end = t + duration;
      if (machine_fraction < 1.0) {
        e.machines.resize(static_cast<std::size_t>(num_machines), 0);
        int affected = 0;
        for (char& m : e.machines) {
          m = rng.uniform() < machine_fraction ? 1 : 0;
          affected += m;
        }
        // An episode that drew an empty subset still happened somewhere:
        // pin it to one machine so the 1-based episode ids stay dense in
        // observed traces at small fleets.
        if (affected == 0) e.machines[0] = 1;
      }
      out.push_back(std::move(e));
    }
  };
  if (dynamics_.flash.enabled) {
    schedule(dynamics_.flash.episodes_per_khour, dynamics_.flash.duration_hours,
             kFlashScheduleSalt, 1.0, flash_);
  }
  if (dynamics_.anomaly.enabled) {
    schedule(dynamics_.anomaly.episodes_per_khour,
             dynamics_.anomaly.duration_hours, kAnomalyScheduleSalt,
             dynamics_.anomaly.machine_fraction, anomaly_);
  }
}

double DynamicsPlan::arrival_factor(double abs_hour) const {
  double factor = 1.0;
  if (dynamics_.diurnal.enabled && dynamics_.diurnal.arrival_amplitude > 0.0) {
    const double phase = 2.0 * std::numbers::pi *
                         (abs_hour - dynamics_.diurnal.phase_hours) /
                         dynamics_.diurnal.period_hours;
    factor *= std::max(
        0.05, 1.0 + dynamics_.diurnal.arrival_amplitude * std::sin(phase));
  }
  for (const Episode& e : flash_) {
    if (abs_hour >= e.start && abs_hour < e.end) {
      factor *= dynamics_.flash.arrival_multiplier;
      break;
    }
  }
  return factor;
}

double DynamicsPlan::hp_fraction(double abs_hour, double base) const {
  if (!dynamics_.diurnal.enabled || dynamics_.diurnal.hp_amplitude <= 0.0) {
    return base;
  }
  const double phase = 2.0 * std::numbers::pi *
                       (abs_hour - dynamics_.diurnal.phase_hours) /
                       dynamics_.diurnal.period_hours;
  const double hp = base + dynamics_.diurnal.hp_amplitude * std::sin(phase);
  return std::min(1.0, std::max(0.0, hp));
}

double DynamicsPlan::duration_scale(double abs_hour) const {
  for (const Episode& e : flash_) {
    if (abs_hour >= e.start && abs_hour < e.end) {
      return dynamics_.flash.short_job_factor;
    }
  }
  return 1.0;
}

int DynamicsPlan::profile_version(double abs_hour, int machine_id) const {
  if (!dynamics_.upgrade.enabled || abs_hour < dynamics_.upgrade.at_hours ||
      machine_id >= migrated_machines_) {
    return 1;
  }
  return 2;
}

DynamicsPlan::AnomalyTag DynamicsPlan::anomaly_at(double abs_hour,
                                                  int machine_id) const {
  for (std::size_t i = 0; i < anomaly_.size(); ++i) {
    const Episode& e = anomaly_[i];
    if (abs_hour < e.start || abs_hour >= e.end) continue;
    if (!e.machines.empty() &&
        e.machines[static_cast<std::size_t>(machine_id)] == 0) {
      continue;
    }
    return AnomalyTag{static_cast<std::uint32_t>(i + 1),
                      dynamics_.anomaly.intensity};
  }
  return AnomalyTag{};
}

void apply_dynamics_overlay(std::vector<double>& sample,
                            const metrics::MetricCatalog& catalog,
                            const ColocationScenario& scenario) {
  if (!scenario.dynamic_tagged()) return;
  for (const metrics::MetricInfo& info : catalog.metrics()) {
    if (info.index >= sample.size()) continue;
    // Occupancy columns encode the mix exactly; dynamics distort behaviour
    // counters, never the mix itself.
    if (info.category == metrics::MetricCategory::kOccupancy) continue;
    double factor = 1.0;
    if (scenario.profile_version > 1 && scenario.profile_shift > 0.0) {
      factor *= std::exp(
          scenario.profile_shift *
          unit_deviate(info.name, kUpgradeOverlaySeed,
                       static_cast<std::uint64_t>(scenario.profile_version)));
    }
    if (scenario.anomaly_episode != 0 && scenario.anomaly_intensity > 0.0) {
      factor *= std::exp(
          scenario.anomaly_intensity *
          unit_deviate(info.name, kAnomalyOverlaySeed,
                       static_cast<std::uint64_t>(scenario.anomaly_episode)));
    }
    sample[info.index] *= factor;
  }
}

}  // namespace flare::dcsim
