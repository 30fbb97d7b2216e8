// The drifting three-shape stream the ingest decision pin and the
// tracked-basis oracle test both replay: 48 six-hour windows of 8 rows per
// shape, with a rolling upgrade a third of the way in, flash crowds and
// anomaly episodes.
#pragma once

#include <cstdint>
#include <utility>

#include "dcsim/dynamics.hpp"
#include "dcsim/fleet.hpp"
#include "dcsim/submission.hpp"

namespace flare::core::testing {

constexpr int kDriftingWindows = 48;
constexpr double kDriftingWindowHours = 6.0;
constexpr std::size_t kDriftingRowsPerShapeWindow = 8;
constexpr std::uint64_t kDriftingStreamSeed = 0x60DE;

/// Rolling upgrade a third of the way in, flash crowds and anomaly episodes.
inline dcsim::WorkloadDynamics drifting_dynamics() {
  dcsim::WorkloadDynamics d;
  d.seed = kDriftingStreamSeed;
  d.upgrade.enabled = true;
  d.upgrade.at_hours = kDriftingWindows / 3 * kDriftingWindowHours;
  d.upgrade.migrated_fraction = 0.5;
  d.upgrade.shift = 0.25;
  d.flash.enabled = true;
  d.flash.episodes_per_khour = 40.0;
  d.flash.duration_hours = 2.0;
  d.flash.arrival_multiplier = 4.0;
  d.anomaly.enabled = true;
  d.anomaly.episodes_per_khour = 30.0;
  d.anomaly.duration_hours = 4.0;
  d.anomaly.intensity = 1.0;
  d.anomaly.machine_fraction = 0.5;
  return d;
}

/// Window `index`: every shape's sub-fleet over the same absolute hours,
/// rows concatenated with dense ids.
inline dcsim::ScenarioSet drifting_window(const dcsim::FleetConfig& fleet, int index) {
  const dcsim::WorkloadDynamics dynamics = drifting_dynamics();
  dcsim::ScenarioSet mixed;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    const dcsim::ShapePopulation& pop = fleet.shapes[s];
    dcsim::SubmissionConfig sub;
    sub.seed = kDriftingStreamSeed + s;
    sub.num_machines = pop.num_machines;
    const dcsim::ScenarioSet part = dcsim::generate_dynamics_batch(
        sub, pop.machine, dynamics.for_shape(pop.machine.name), index,
        kDriftingWindowHours, kDriftingRowsPerShapeWindow);
    for (dcsim::ColocationScenario row : part.scenarios) {
      row.id = mixed.scenarios.size();
      mixed.scenarios.push_back(std::move(row));
    }
  }
  mixed.machine_type = "mixed";
  return mixed;
}

}  // namespace flare::core::testing
