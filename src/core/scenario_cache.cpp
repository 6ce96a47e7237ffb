#include "core/scenario_cache.hpp"

#include <algorithm>
#include <limits>

#include "sim/comm.hpp"
#include "support/checked.hpp"
#include "support/runtime_profiler.hpp"
#include "support/thread_pool.hpp"

namespace ahg::core {

ScenarioCache::ScenarioCache(const workload::Scenario& scenario)
    : num_tasks_(scenario.num_tasks()),
      num_machines_(scenario.num_machines()),
      versions_(scenario.versions) {
  const std::size_t cells =
      checked_mul(num_tasks_, num_machines_, "ScenarioCache ETC table");
  etc_seconds_.resize(cells);
  energy_need_.resize(checked_mul(cells, 2, "ScenarioCache energy_need table"));
  min_exec_cycles_.resize(checked_mul(num_tasks_, 2, "min_exec_cycles table"));
  compute_power_.reserve(num_machines_);
  for (const auto& spec : scenario.grid.machines()) {
    compute_power_.push_back(spec.compute_power);
  }

  // The machine-independent half of worst_case_outgoing_energy: the hold
  // cycles of each data-carrying child edge, per (task, version) in child
  // order. Every sender is in the grid, so each hold runs at the grid's
  // minimum bandwidth whichever machine sends.
  std::vector<std::size_t> hold_begin(checked_mul(num_tasks_, 2, "hold index") + 1);
  std::vector<Cycles> holds;
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    const auto task = static_cast<TaskId>(t);
    for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
      hold_begin[t * 2 + version_slot(version)] = holds.size();
      for (const TaskId child : scenario.dag.children(task)) {
        const double bits = scenario.edge_bits(task, child, version);
        if (bits <= 0.0) continue;
        holds.push_back(sim::worst_case_transfer_cycles(bits, scenario.grid));
      }
    }
  }
  hold_begin.back() = holds.size();

  // Machine columns are disjoint contiguous ranges, so they fan out with no
  // ordering concerns. Each entry sums the machine's transfer energy over
  // the holds from 0.0 in child order and adds the execution energy: the
  // operation order of exec_energy + worst_case_outgoing_energy, hence the
  // same doubles. The region marker labels the fan-out in a worker trace
  // when a profiler is attached.
  obs::RuntimeRegion region(global_pool().profiler(), "cache_build");
  global_pool().parallel_for(0, num_machines_, [&](std::size_t m) {
    const auto machine = static_cast<MachineId>(m);
    const sim::MachineSpec& spec = scenario.grid.machine(machine);
    for (std::size_t t = 0; t < num_tasks_; ++t) {
      const auto task = static_cast<TaskId>(t);
      etc_seconds_[cell(task, machine)] = scenario.etc.seconds(task, machine);
      for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
        const std::size_t h = t * 2 + version_slot(version);
        double comm = 0.0;
        for (std::size_t i = hold_begin[h]; i < hold_begin[h + 1]; ++i) {
          comm += sim::transfer_energy(spec, holds[i]);
        }
        energy_need_[cell(task, machine) * 2 + version_slot(version)] =
            exec_energy(task, machine, version) + comm;
      }
    }
  });

  // exec_cycles is non-decreasing in the ETC seconds (a product with a
  // positive factor, then a ceil), so the minimum over machines is the
  // cycles of the task's smallest ETC entry — one conversion per version.
  global_pool().parallel_for(0, num_tasks_, [&](std::size_t t) {
    const auto task = static_cast<TaskId>(t);
    double min_seconds = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < num_machines_; ++m) {
      min_seconds = std::min(min_seconds,
                             scenario.etc.seconds(task, static_cast<MachineId>(m)));
    }
    for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
      min_exec_cycles_[t * 2 + version_slot(version)] =
          versions_.exec_cycles(min_seconds, version);
    }
  });
}

}  // namespace ahg::core
