#include "core/placement.hpp"

#include <algorithm>
#include <vector>

#include "core/feasibility.hpp"
#include "sim/comm.hpp"
#include "support/contract.hpp"

namespace ahg::core {

std::shared_ptr<sim::Schedule> make_schedule(const workload::Scenario& scenario) {
  auto schedule =
      std::make_shared<sim::Schedule>(scenario.grid, scenario.num_tasks());
  for (const auto& outage : scenario.link_outages) {
    schedule->block_channels(outage.machine, outage.start, outage.duration);
  }
  return schedule;
}

PlacementPlan plan_placement(const workload::Scenario& scenario,
                             const sim::Schedule& schedule, TaskId task,
                             MachineId machine, VersionKind version,
                             Cycles not_before) {
  AHG_EXPECTS_MSG(!schedule.is_assigned(task), "planning an already-assigned task");
  AHG_EXPECTS_MSG(not_before >= 0, "not_before must be non-negative");

  PlacementPlan plan;
  plan.task = task;
  plan.machine = machine;
  plan.version = version;
  plan.duration = scenario.exec_cycles(task, machine, version);
  plan.exec_energy = exec_energy(scenario, task, machine, version);

  // Release gate: execution may not start before the subtask's arrival.
  // Input transfers MAY pre-stage data earlier (the data exists as soon as
  // the parent finishes; the release gates the subtask itself).
  const Cycles release = scenario.release(task);

  // Sort parents by id for a deterministic transfer-scheduling order.
  std::vector<TaskId> parents(scenario.dag.parents(task).begin(),
                              scenario.dag.parents(task).end());
  std::sort(parents.begin(), parents.end());

  Cycles arrival = 0;
  for (const TaskId parent : parents) {
    AHG_EXPECTS_MSG(schedule.is_assigned(parent), "parent not yet assigned");
    const auto& pa = schedule.assignment(parent);
    const double bits = scenario.edge_bits(parent, task, pa.version);
    if (pa.machine == machine || bits <= 0.0) {
      // Same-machine (free, instantaneous) or empty edge: data is available
      // the moment the parent finishes.
      arrival = std::max(arrival, pa.finish);
      if (bits > 0.0) plan.released_parents.push_back(parent);
      continue;
    }
    const auto& sender = scenario.grid.machine(pa.machine);
    const auto& receiver = scenario.grid.machine(machine);
    const Cycles dur = sim::transfer_cycles(bits, sender, receiver);
    AHG_EXPECTS_MSG(dur > 0, "transfer duration must be positive");

    // Fit on the live tx/rx timelines, then step past the transfers planned
    // for earlier parents: all on this rx channel, they cover each sender's
    // share too, so this is the fit on copies with them booked (DESIGN.md §4).
    Cycles start = std::max(not_before, pa.finish);
    for (;;) {
      start = sim::Timeline::earliest_fit_pair(schedule.tx_timeline(pa.machine),
                                               schedule.rx_timeline(machine),
                                               start, dur);
      Cycles blocked_until = start;
      for (const CommPlan& planned : plan.comms) {
        if (planned.start < start + dur && start < planned.start + planned.duration) {
          blocked_until = std::max(blocked_until, planned.start + planned.duration);
        }
      }
      if (blocked_until == start) break;
      start = blocked_until;
    }

    CommPlan comm;
    comm.parent = parent;
    comm.from_machine = pa.machine;
    comm.start = start;
    comm.duration = dur;
    comm.bits = bits;
    comm.energy = sim::transfer_energy(sender, dur);
    plan.comms.push_back(comm);
    arrival = std::max(arrival, start + dur);
  }

  plan.arrival = arrival;
  plan.start = schedule.compute_timeline(machine).earliest_fit(
      std::max({not_before, arrival, release}), plan.duration);
  return plan;
}

void commit_placement(const workload::Scenario& scenario, sim::Schedule& schedule,
                      const PlacementPlan& plan) {
  AHG_EXPECTS_MSG(plan.task != kInvalidTask && plan.machine != kInvalidMachine,
                  "committing an empty plan");

  for (const auto& comm : plan.comms) {
    // add_comm settles the parent's per-edge worst-case reservation (the
    // actual charge can never exceed it — same sender, shorter-or-equal
    // duration).
    schedule.add_comm(comm.parent, plan.task, comm.from_machine, plan.machine,
                      comm.start, comm.duration, comm.bits, comm.energy);
  }
  for (const TaskId parent : plan.released_parents) {
    // Data stayed on the parent's machine: no transfer, no energy; drop the
    // worst-case hold.
    schedule.ledger().release(sim::edge_key(parent, plan.task));
  }

  schedule.add_assignment(plan.task, plan.machine, plan.version, plan.start,
                          plan.duration, plan.exec_energy);

  // Reserve worst-case outgoing energy for each data-carrying child edge.
  const auto& spec = scenario.grid.machine(plan.machine);
  for (const TaskId child : scenario.dag.children(plan.task)) {
    const double bits = scenario.edge_bits(plan.task, child, plan.version);
    if (bits <= 0.0) continue;
    const Cycles wc = sim::worst_case_transfer_cycles(bits, scenario.grid);
    schedule.ledger().reserve(plan.machine, sim::edge_key(plan.task, child),
                              sim::transfer_energy(spec, wc));
  }
}

}  // namespace ahg::core
