#include "core/baselines.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

namespace {

/// Shared frontier bookkeeping for the static baselines.
class Frontier {
 public:
  explicit Frontier(const workload::Scenario& scenario) {
    const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
    unmapped_parents_.resize(scenario.num_tasks());
    for (TaskId t = 0; t < num_tasks; ++t) {
      unmapped_parents_[static_cast<std::size_t>(t)] = scenario.dag.parents(t).size();
      if (unmapped_parents_[static_cast<std::size_t>(t)] == 0) tasks_.push_back(t);
    }
  }

  const std::vector<TaskId>& tasks() const noexcept { return tasks_; }
  bool empty() const noexcept { return tasks_.empty(); }

  void mark_mapped(const workload::Scenario& scenario, TaskId task) {
    tasks_.erase(std::find(tasks_.begin(), tasks_.end(), task));
    for (const TaskId child : scenario.dag.children(task)) {
      if (--unmapped_parents_[static_cast<std::size_t>(child)] == 0) {
        tasks_.push_back(child);
      }
    }
    std::sort(tasks_.begin(), tasks_.end());
  }

 private:
  std::vector<std::size_t> unmapped_parents_;
  std::vector<TaskId> tasks_;
};

/// Critical-path deadline budget per task (same rule as Max-Max; see
/// DESIGN.md §3b.3): longest descendant chain at cheapest secondary cost.
std::vector<Cycles> deadline_tails(const workload::Scenario& scenario) {
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  std::vector<Cycles> tail(scenario.num_tasks(), 0);
  const auto order = scenario.dag.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    Cycles min_exec = std::numeric_limits<Cycles>::max();
    for (MachineId j = 0; j < num_machines; ++j) {
      min_exec = std::min(min_exec, scenario.exec_cycles(t, j, VersionKind::Secondary));
    }
    for (const TaskId parent : scenario.dag.parents(t)) {
      tail[static_cast<std::size_t>(parent)] =
          std::max(tail[static_cast<std::size_t>(parent)],
                   min_exec + tail[static_cast<std::size_t>(t)]);
    }
  }
  return tail;
}

/// Hole-aware finish estimate (arrival lower bound = latest parent finish).
Cycles estimate_finish(const workload::Scenario& scenario, const sim::Schedule& schedule,
                       TaskId task, MachineId machine, VersionKind version) {
  const Cycles exec = scenario.exec_cycles(task, machine, version);
  Cycles arrival_lb = scenario.release(task);
  for (const TaskId parent : scenario.dag.parents(task)) {
    arrival_lb = std::max(arrival_lb, schedule.assignment(parent).finish);
  }
  return schedule.compute_timeline(machine).earliest_fit(arrival_lb, exec) + exec;
}

bool admissible(const workload::Scenario& scenario, const sim::Schedule& schedule,
                const BaselineParams& params, const std::vector<Cycles>& tail,
                TaskId task, MachineId machine, VersionKind version) {
  if (!version_fits_energy(scenario, schedule, task, machine, version)) return false;
  if (!params.enforce_tau) return true;
  return estimate_finish(scenario, schedule, task, machine, version) +
             tail[static_cast<std::size_t>(task)] <=
         scenario.tau;
}

/// Version policy shared by Min-Min and OLB: primary when admissible (the
/// baselines pick machines; this picks versions), else secondary, else none.
std::optional<VersionKind> pick_version(const workload::Scenario& scenario,
                                        const sim::Schedule& schedule,
                                        const BaselineParams& params,
                                        const std::vector<Cycles>& tail, TaskId task,
                                        MachineId machine) {
  if (admissible(scenario, schedule, params, tail, task, machine, VersionKind::Primary)) {
    return VersionKind::Primary;
  }
  if (admissible(scenario, schedule, params, tail, task, machine,
                 VersionKind::Secondary)) {
    return VersionKind::Secondary;
  }
  return std::nullopt;
}

MappingResult finalize(const workload::Scenario& scenario,
                       std::shared_ptr<sim::Schedule> schedule, const Stopwatch& timer,
                       MappingResult result) {
  result.wall_seconds = timer.seconds();
  result.complete = schedule->complete();
  result.assigned = schedule->num_assigned();
  result.t100 = schedule->t100();
  result.aet = schedule->aet();
  result.tec = schedule->tec();
  result.within_tau = schedule->aet() <= scenario.tau;
  result.schedule = std::move(schedule);
  return result;
}

/// Commit with an exact-plan deadline re-check; returns false if every
/// retry is exhausted (the caller treats the triplet as inadmissible).
bool checked_commit(const workload::Scenario& scenario, sim::Schedule& schedule,
                    const BaselineParams& params, const std::vector<Cycles>& tail,
                    TaskId task, MachineId machine, VersionKind version) {
  const PlacementPlan plan =
      plan_placement(scenario, schedule, task, machine, version, /*not_before=*/0);
  if (params.enforce_tau &&
      plan.finish() + tail[static_cast<std::size_t>(task)] > scenario.tau) {
    return false;
  }
  commit_placement(scenario, schedule, plan);
  return true;
}

}  // namespace

MappingResult run_minmin(const workload::Scenario& scenario, const BaselineParams& params) {
  scenario.validate();
  const Stopwatch timer;
  auto schedule = make_schedule(scenario);
  const auto tail = deadline_tails(scenario);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  Frontier frontier(scenario);
  MappingResult result;

  std::set<std::pair<TaskId, MachineId>> excluded;
  while (!schedule->complete()) {
    ++result.iterations;
    // Min-Min: the (task, machine) pair with the minimum completion time,
    // with the version chosen primary-first per pair.
    TaskId best_task = kInvalidTask;
    MachineId best_machine = kInvalidMachine;
    VersionKind best_version = VersionKind::Primary;
    Cycles best_finish = std::numeric_limits<Cycles>::max();
    for (const TaskId task : frontier.tasks()) {
      for (MachineId machine = 0; machine < num_machines; ++machine) {
        if (excluded.contains({task, machine})) continue;
        const auto version =
            pick_version(scenario, *schedule, params, tail, task, machine);
        if (!version.has_value()) continue;
        const Cycles finish = estimate_finish(scenario, *schedule, task, machine, *version);
        if (finish < best_finish ||
            (finish == best_finish && task < best_task)) {
          best_task = task;
          best_machine = machine;
          best_version = *version;
          best_finish = finish;
        }
      }
    }
    if (best_task == kInvalidTask) break;  // stuck
    if (!checked_commit(scenario, *schedule, params, tail, best_task, best_machine,
                        best_version)) {
      excluded.insert({best_task, best_machine});
      --result.iterations;  // retry the same round
      continue;
    }
    excluded.clear();
    frontier.mark_mapped(scenario, best_task);
  }
  return finalize(scenario, std::move(schedule), timer, std::move(result));
}

MappingResult run_olb(const workload::Scenario& scenario, const BaselineParams& params) {
  scenario.validate();
  const Stopwatch timer;
  auto schedule = make_schedule(scenario);
  const auto tail = deadline_tails(scenario);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  Frontier frontier(scenario);
  MappingResult result;

  while (!schedule->complete() && !frontier.empty()) {
    ++result.iterations;
    const TaskId task = frontier.tasks().front();  // deterministic id order
    // Machines by ascending ready time (classic OLB ignores execution time).
    std::vector<MachineId> machines(static_cast<std::size_t>(num_machines));
    for (MachineId j = 0; j < num_machines; ++j) {
      machines[static_cast<std::size_t>(j)] = j;
    }
    std::sort(machines.begin(), machines.end(), [&](MachineId a, MachineId b) {
      const Cycles ra = schedule->machine_ready(a);
      const Cycles rb = schedule->machine_ready(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    bool mapped = false;
    for (const MachineId machine : machines) {
      const auto version = pick_version(scenario, *schedule, params, tail, task, machine);
      if (!version.has_value()) continue;
      if (checked_commit(scenario, *schedule, params, tail, task, machine, *version)) {
        frontier.mark_mapped(scenario, task);
        mapped = true;
        break;
      }
    }
    if (!mapped) break;  // stuck on the head-of-line task
  }
  return finalize(scenario, std::move(schedule), timer, std::move(result));
}

MappingResult run_random(const workload::Scenario& scenario,
                         const RandomMapperParams& params) {
  scenario.validate();
  const Stopwatch timer;
  auto schedule = make_schedule(scenario);
  const auto tail = deadline_tails(scenario);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  Frontier frontier(scenario);
  Rng rng(params.seed);
  MappingResult result;

  while (!schedule->complete() && !frontier.empty()) {
    ++result.iterations;
    // Random frontier task; random admissible (machine, version).
    const auto& tasks = frontier.tasks();
    const TaskId task = tasks[rng.uniform_below(tasks.size())];

    std::vector<std::pair<MachineId, VersionKind>> options;
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
        if (admissible(scenario, *schedule, params.base, tail, task, machine, version)) {
          options.emplace_back(machine, version);
        }
      }
    }
    bool mapped = false;
    while (!options.empty()) {
      const std::size_t pick = rng.uniform_below(options.size());
      const auto [machine, version] = options[pick];
      if (checked_commit(scenario, *schedule, params.base, tail, task, machine, version)) {
        frontier.mark_mapped(scenario, task);
        mapped = true;
        break;
      }
      options.erase(options.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!mapped) break;  // this task fits nowhere: stuck
  }
  return finalize(scenario, std::move(schedule), timer, std::move(result));
}

}  // namespace ahg::core
