#include "core/feasibility.hpp"

#include "core/scenario_cache.hpp"
#include "sim/comm.hpp"

namespace ahg::core {

double worst_case_outgoing_energy(const workload::Scenario& scenario, TaskId task,
                                  MachineId machine, VersionKind version) {
  const auto& spec = scenario.grid.machine(machine);
  double total = 0.0;
  for (const TaskId child : scenario.dag.children(task)) {
    const double bits = scenario.edge_bits(task, child, version);
    if (bits <= 0.0) continue;
    const Cycles wc = sim::worst_case_transfer_cycles(bits, scenario.grid);
    total += sim::transfer_energy(spec, wc);
  }
  return total;
}

double exec_energy(const workload::Scenario& scenario, TaskId task, MachineId machine,
                   VersionKind version) {
  const Cycles duration = scenario.exec_cycles(task, machine, version);
  return scenario.grid.machine(machine).compute_energy(duration);
}

bool version_fits_energy(const workload::Scenario& scenario,
                         const sim::Schedule& schedule, TaskId task,
                         MachineId machine, VersionKind version) {
  const double need = exec_energy(scenario, task, machine, version) +
                      worst_case_outgoing_energy(scenario, task, machine, version);
  return need <= energy_headroom(schedule, machine);
}

bool version_fits_energy(const ScenarioCache& cache, const sim::Schedule& schedule,
                         TaskId task, MachineId machine, VersionKind version) {
  return cache.energy_need(task, machine, version) <= energy_headroom(schedule, machine);
}

bool parents_assigned(const workload::Scenario& scenario, const sim::Schedule& schedule,
                      TaskId task) {
  for (const TaskId parent : scenario.dag.parents(task)) {
    if (!schedule.is_assigned(parent)) return false;
  }
  return true;
}

bool slrh_pool_admissible(const workload::Scenario& scenario,
                          const sim::Schedule& schedule, TaskId task,
                          MachineId machine) {
  return classify_slrh_admission(scenario, schedule, task, machine) ==
         AdmissionOutcome::Admissible;
}

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::Admissible: return "admissible";
    case AdmissionOutcome::AlreadyAssigned: return "already_assigned";
    case AdmissionOutcome::ParentsUnassigned: return "parents_unassigned";
    case AdmissionOutcome::EnergyInfeasible: return "energy_infeasible";
  }
  return "?";
}

AdmissionOutcome classify_slrh_admission(const workload::Scenario& scenario,
                                         const sim::Schedule& schedule, TaskId task,
                                         MachineId machine) {
  if (schedule.is_assigned(task)) return AdmissionOutcome::AlreadyAssigned;
  if (!parents_assigned(scenario, schedule, task)) {
    return AdmissionOutcome::ParentsUnassigned;
  }
  if (!version_fits_energy(scenario, schedule, task, machine, VersionKind::Secondary)) {
    return AdmissionOutcome::EnergyInfeasible;
  }
  return AdmissionOutcome::Admissible;
}

}  // namespace ahg::core
