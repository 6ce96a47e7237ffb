#include "core/scenario_cache.hpp"

#include <algorithm>
#include <limits>

#include "core/feasibility.hpp"
#include "support/checked.hpp"
#include "support/runtime_profiler.hpp"
#include "support/thread_pool.hpp"

namespace ahg::core {

ScenarioCache::ScenarioCache(const workload::Scenario& scenario, CacheBuild mode)
    : num_tasks_(scenario.num_tasks()), num_machines_(scenario.num_machines()) {
  const std::size_t cells =
      checked_mul(num_tasks_, num_machines_, 2, "ScenarioCache tables");
  exec_cycles_.resize(cells);
  exec_energy_.resize(cells);
  energy_need_.resize(cells);
  min_exec_cycles_.assign(checked_mul(num_tasks_, 2, "min_exec_cycles table"),
                          std::numeric_limits<Cycles>::max());
  primary_compute_energy_.resize(
      checked_mul(num_tasks_, num_machines_, "primary_compute_energy table"));

  const auto num_machines = static_cast<MachineId>(num_machines_);

  if (mode == CacheBuild::Lazy) {
    scenario_ = &scenario;
    column_once_ = std::make_unique<std::once_flag[]>(num_machines_);
    column_ready_ = std::make_unique<std::atomic<bool>[]>(num_machines_);
    for (std::size_t m = 0; m < num_machines_; ++m) {
      column_ready_[m].store(false, std::memory_order_relaxed);
    }
  } else if (mode == CacheBuild::Parallel) {
    // Entries are independent per (task, machine, version) and a machine's
    // column is one contiguous range, so columns fan out with no ordering
    // concerns — bit-identical tables to the serial build. The region marker
    // labels the fan-out in a worker trace when a profiler is attached.
    obs::RuntimeRegion region(global_pool().profiler(), "cache_build");
    global_pool().parallel_for(0, num_machines_, [&](std::size_t machine) {
      fill_column(scenario, static_cast<MachineId>(machine));
    });
    columns_built_.store(num_machines_, std::memory_order_relaxed);
  } else {
    // Serial diff baseline: machine-outer to match the machine-major table
    // layout (sequential writes).
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      fill_column(scenario, machine);
    }
    columns_built_.store(num_machines_, std::memory_order_relaxed);
  }

  // The global per-task tables stay eager in every mode: they cost ETC
  // lookups only (no per-entry child walk), and Max-Max / the upper bound
  // read them for every task regardless of which machines get probed. The
  // minimum accumulates over machines in ascending order in every mode —
  // and min over integers is order-independent anyway — so the values are
  // bit-identical across modes.
  const bool parallel = mode == CacheBuild::Parallel;
  const auto per_task_tables = [&](std::size_t t) {
    const auto task = static_cast<TaskId>(t);
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      for (const VersionKind version :
           {VersionKind::Primary, VersionKind::Secondary}) {
        const std::size_t m = static_cast<std::size_t>(task) * 2 +
                              (version == VersionKind::Primary ? 0 : 1);
        // The exact expression (and operation order) of the uncached path so
        // lookups are bit-identical to recomputation.
        min_exec_cycles_[m] = std::min(
            min_exec_cycles_[m], scenario.exec_cycles(task, machine, version));
      }
      // This table keeps the task-major layout its consumer (the upper
      // bound's per-task greedy sweep over machines) reads sequentially.
      primary_compute_energy_[static_cast<std::size_t>(task) * num_machines_ +
                              static_cast<std::size_t>(machine)] =
          scenario.grid.machine(machine).compute_power *
          scenario.etc.seconds(task, machine);
    }
  };
  if (parallel) {
    obs::RuntimeRegion region(global_pool().profiler(), "cache_build");
    global_pool().parallel_for(0, num_tasks_, per_task_tables);
  } else {
    for (std::size_t t = 0; t < num_tasks_; ++t) per_task_tables(t);
  }
}

void ScenarioCache::fill_column(const workload::Scenario& scenario,
                                MachineId machine) const {
  const auto num_tasks = static_cast<TaskId>(num_tasks_);
  for (TaskId task = 0; task < num_tasks; ++task) {
    for (const VersionKind version :
         {VersionKind::Primary, VersionKind::Secondary}) {
      const std::size_t i = index(task, machine, version);
      // Each entry uses the exact expression (and operation order) of the
      // uncached path so lookups are bit-identical to recomputation.
      exec_cycles_[i] = scenario.exec_cycles(task, machine, version);
      exec_energy_[i] = core::exec_energy(scenario, task, machine, version);
      energy_need_[i] =
          exec_energy_[i] +
          worst_case_outgoing_energy(scenario, task, machine, version);
    }
  }
}

void ScenarioCache::build_column(MachineId machine) const {
  std::call_once(column_once_[static_cast<std::size_t>(machine)], [&] {
    // Lazy first-touch fills happen on whatever thread probes the column —
    // often inside an already-marked fan-out region (matrix_cells), whose
    // label then covers the fill. Only an unmarked touch (a serial driver's
    // first probe) opens its own region so the trace still attributes it.
    obs::RuntimeProfiler* prof = global_pool().profiler();
    std::uint32_t token = 0;
    if (prof != nullptr && prof->current_region() == 0) {
      token = prof->region_begin("cache_lazy_column");
    }
    fill_column(*scenario_, machine);
    columns_built_.fetch_add(1, std::memory_order_relaxed);
    column_ready_[static_cast<std::size_t>(machine)].store(
        true, std::memory_order_release);
    if (token != 0) prof->region_end(token);
  });
}

}  // namespace ahg::core
