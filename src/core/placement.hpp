#pragma once
// Placement planning and committing.
//
// plan_placement() answers, WITHOUT mutating the schedule: "if (task,
// version) were mapped to this machine with no action earlier than
// `not_before`, when would its inputs arrive, when could it start, and what
// would everything cost?" It schedules each incoming transfer on the
// parent's tx channel and the target's rx channel (one outgoing and one
// incoming transfer at a time per machine — paper assumptions (b)/(c)).
// It reads the schedule's own tx/rx timelines and steps each transfer past
// the ones already planned for earlier parents, so no timeline is copied.
//
// commit_placement() applies a plan: records transfers (settling the
// parents' worst-case energy reservations), records the computation, and
// reserves worst-case outgoing-communication energy for the task's own
// children (paper §IV's conservative feasibility rule — see DESIGN.md §4).
//
// SLRH passes not_before = current clock ("the program would not allow the
// scheduler to look backward in time"); Max-Max passes 0 and naturally
// exploits schedule holes because planning uses earliest-fit searches.

#include <memory>
#include <vector>

#include "sim/schedule.hpp"
#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

struct CommPlan {
  TaskId parent = kInvalidTask;
  MachineId from_machine = kInvalidMachine;
  Cycles start = 0;
  Cycles duration = 0;
  double bits = 0.0;
  double energy = 0.0;
};

struct PlacementPlan {
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;
  VersionKind version = VersionKind::Primary;
  Cycles start = 0;
  Cycles duration = 0;
  Cycles arrival = 0;  ///< when the last input lands on the machine
  double exec_energy = 0.0;
  std::vector<CommPlan> comms;  ///< cross-machine transfers (bits > 0 only)
  /// Parents whose edge carried data but needs no transfer (same machine):
  /// their worst-case reservations are released on commit.
  std::vector<TaskId> released_parents;

  Cycles finish() const noexcept { return start + duration; }
  double comm_energy() const noexcept {
    double total = 0.0;
    for (const auto& c : comms) total += c.energy;
    return total;
  }
};

/// Plan (task, version) on `machine`, all actions at or after `not_before`;
/// execution additionally starts no earlier than the subtask's release time
/// (input transfers may pre-stage data before the release).
/// Requires: task unassigned, every parent assigned.
PlacementPlan plan_placement(const workload::Scenario& scenario,
                             const sim::Schedule& schedule, TaskId task,
                             MachineId machine, VersionKind version,
                             Cycles not_before);

/// Construct a schedule for a scenario with the scenario's link outages
/// pre-booked on the tx/rx channels (so every placement plans around them).
/// All heuristic runners build their schedules through this.
std::shared_ptr<sim::Schedule> make_schedule(const workload::Scenario& scenario);

/// Apply a plan produced by plan_placement() against the SAME schedule state
/// (no intervening mutations). Charges energy, books timelines, settles the
/// parents' reservations, and reserves worst-case outgoing energy for the
/// task's children. The caller must have verified version_fits_energy().
void commit_placement(const workload::Scenario& scenario, sim::Schedule& schedule,
                      const PlacementPlan& plan);

}  // namespace ahg::core
