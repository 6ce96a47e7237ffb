#include "core/upper_bound.hpp"

#include <algorithm>
#include <limits>

#include "support/contract.hpp"

namespace ahg::core {

std::vector<double> min_ratios(const workload::EtcMatrix& etc) {
  std::vector<double> ratios(etc.num_machines(),
                             std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < etc.num_machines(); ++j) {
    for (std::size_t i = 0; i < etc.num_tasks(); ++i) {
      const double r = etc.seconds(static_cast<TaskId>(i), static_cast<MachineId>(j)) /
                       etc.seconds(static_cast<TaskId>(i), 0);
      ratios[j] = std::min(ratios[j], r);
    }
  }
  return ratios;
}

UpperBoundResult compute_upper_bound(const workload::Scenario& scenario,
                                     const ScenarioCache* /*cache*/) {
  UpperBoundResult result;
  result.min_ratio = min_ratios(scenario.etc);
  result.tse = scenario.grid.total_system_energy();

  const double tau_seconds = seconds_from_cycles(scenario.tau);
  for (const double mr : result.min_ratio) {
    AHG_ENSURES_MSG(mr > 0.0, "minimum ratio must be positive");
    result.tecc_seconds += tau_seconds / mr;
  }

  // Greedy: each subtask's cheapest-energy machine, consumed in order of
  // increasing energy. The selection key (energy) is independent of the pool
  // levels, so sorting once is equivalent to the paper's repeated
  // minimum-energy search; ties break by task id for determinism.
  struct Pick {
    TaskId task;
    double energy;
    double equiv_seconds;
  };
  std::vector<Pick> picks;
  picks.reserve(scenario.num_tasks());
  for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
    const auto task = static_cast<TaskId>(i);
    Pick pick{task, std::numeric_limits<double>::infinity(), 0.0};
    for (std::size_t j = 0; j < scenario.num_machines(); ++j) {
      const auto machine = static_cast<MachineId>(j);
      const double secs = scenario.etc.seconds(task, machine);
      const double energy = scenario.grid.machine(machine).compute_power * secs;
      if (energy < pick.energy) {
        pick.energy = energy;
        pick.equiv_seconds = secs / result.min_ratio[j];
      }
    }
    picks.push_back(pick);
  }
  std::sort(picks.begin(), picks.end(), [](const Pick& a, const Pick& b) {
    if (a.energy != b.energy) return a.energy < b.energy;
    return a.task < b.task;
  });

  double cycles_left = result.tecc_seconds;
  double energy_left = result.tse;
  for (const Pick& pick : picks) {
    if (pick.equiv_seconds > cycles_left || pick.energy > energy_left) {
      result.cycle_limited = pick.equiv_seconds > cycles_left;
      result.energy_limited = pick.energy > energy_left;
      break;
    }
    cycles_left -= pick.equiv_seconds;
    energy_left -= pick.energy;
    ++result.bound;
  }
  result.cycles_used_seconds = result.tecc_seconds - cycles_left;
  result.energy_used = result.tse - energy_left;
  return result;
}

}  // namespace ahg::core
