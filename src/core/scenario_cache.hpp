#pragma once
// Precomputed pure-scenario tables for the heuristic inner loops.
//
// Pool admission and candidate scoring repeatedly evaluate quantities that
// are pure functions of the static scenario — execution durations, execution
// energies, and the conservative admission "energy need" (execution energy
// plus the worst-case outgoing-communication energy over all child edges,
// paper §IV). The clock-driven SLRH driver re-derives them O(timesteps ×
// machines × |T| × degree) times; a ScenarioCache computes each exactly once
// per (task, machine, version) and the hot paths read the tables instead.
//
// Bit-identity contract: every table entry is produced by the SAME
// expression, in the SAME operation order, as the uncached functions in
// feasibility.cpp / scoring.cpp evaluate on demand. A cached lookup therefore
// returns a bit-identical double, and heuristics driven through the cache
// make exactly the same decisions as the uncached functions would (the
// tables are checked entry by entry against those functions by
// tests/test_determinism.cpp, and the golden schedule digests in
// tests/test_golden_schedules.cpp pin the resulting schedules).
//
// Build modes: entries are independent per (task, machine, version), so the
// build parallelizes over machine columns with no ordering concerns — every
// mode produces bit-identical tables (also asserted by test_determinism).
//  - Parallel (default): machine columns fan out over the global work-
//    stealing pool (configure_global_pool / --jobs); the dominant cost, the
//    admission energy's per-entry walk over the task's children, scales
//    with the worker count.
//  - Serial: the original single-thread build, kept as the diff baseline.
//  - Lazy: only the cheap global tables (min_exec_cycles,
//    primary_compute_energy) are built up front; a machine's column is
//    built on first touch, so machines never probed — e.g. churn-departed
//    ones — never pay the column walk. First-touch is thread-safe
//    (per-column once-flags); a lazy cache retains a pointer to the
//    scenario and must not outlive it.
//
// A cache is immutable after construction (lazy first-touch fills are
// memoization, invisible to readers) and safe to share read-only across
// threads — the tuner builds one per scenario and all parallel_for workers
// probing weight grid points reuse it.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

enum class CacheBuild { Serial, Parallel, Lazy };

class ScenarioCache {
 public:
  explicit ScenarioCache(const workload::Scenario& scenario,
                         CacheBuild mode = CacheBuild::Parallel);

  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t num_machines() const noexcept { return num_machines_; }

  /// scenario.exec_cycles(task, machine, version), precomputed.
  Cycles exec_cycles(TaskId task, MachineId machine, VersionKind version) const {
    touch_column(machine);
    return exec_cycles_[index(task, machine, version)];
  }

  /// core::exec_energy(scenario, task, machine, version), precomputed.
  double exec_energy(TaskId task, MachineId machine, VersionKind version) const {
    touch_column(machine);
    return exec_energy_[index(task, machine, version)];
  }

  /// The admission "energy need": exec_energy + worst_case_outgoing_energy —
  /// the quantity version_fits_energy compares against the machine's
  /// available battery.
  double energy_need(TaskId task, MachineId machine, VersionKind version) const {
    touch_column(machine);
    return energy_need_[index(task, machine, version)];
  }

  /// min over machines of exec_cycles(task, ·, version) — the per-task term
  /// of Max-Max's critical-path deadline lookahead. Always built eagerly
  /// (ETC lookups only, no child walk).
  Cycles min_exec_cycles(TaskId task, VersionKind version) const {
    return min_exec_cycles_[static_cast<std::size_t>(task) * 2 +
                            (version == VersionKind::Primary ? 0 : 1)];
  }

  /// compute_power(machine) * etc.seconds(task, machine): the exact
  /// (un-rounded) primary execution energy the upper bound's greedy
  /// minimum-energy pick evaluates per (task, machine). Always eager.
  double primary_compute_energy(TaskId task, MachineId machine) const {
    return primary_compute_energy_[static_cast<std::size_t>(task) * num_machines_ +
                                   static_cast<std::size_t>(machine)];
  }

  /// Machine columns materialized so far: num_machines() for eager modes,
  /// the first-touch count for Lazy (the scale tier's "departed machines
  /// never pay" assertion reads this).
  std::size_t columns_built() const noexcept {
    return columns_built_.load(std::memory_order_relaxed);
  }

  /// True iff `machine`'s column has been materialized (always true for
  /// eager modes).
  bool column_built(MachineId machine) const noexcept {
    return column_ready_ == nullptr ||
           column_ready_[static_cast<std::size_t>(machine)].load(
               std::memory_order_acquire);
  }

  /// Table storage in bytes (all five tables plus the lazy-mode per-column
  /// flags). Capacities are fixed at construction — Lazy first-touch fills
  /// write into pre-sized tables — so this is a constant upper bound, the
  /// memory-telemetry gauge exported as memory.scenario_cache_bytes.
  std::size_t memory_bound_bytes() const noexcept {
    std::size_t bytes = exec_cycles_.capacity() * sizeof(Cycles) +
                        exec_energy_.capacity() * sizeof(double) +
                        energy_need_.capacity() * sizeof(double) +
                        min_exec_cycles_.capacity() * sizeof(Cycles) +
                        primary_compute_energy_.capacity() * sizeof(double);
    if (column_ready_ != nullptr) {
      bytes += num_machines_ * (sizeof(std::once_flag) + sizeof(std::atomic<bool>));
    }
    return bytes;
  }

 private:
  /// MACHINE-major: one machine's whole column is contiguous (stride 2
  /// entries per task). The SLRH hot path — the batched pool gather — reads
  /// a fixed machine's entries across many ready tasks, so this layout turns
  /// the gather into near-sequential loads at |M|=512, where the old
  /// task-major layout strode |M|*2 entries (a cache line per task). It is
  /// also what makes the parallel and lazy builds trivially safe: a column
  /// is one contiguous disjoint range per machine.
  std::size_t index(TaskId task, MachineId machine, VersionKind version) const {
    return (static_cast<std::size_t>(machine) * num_tasks_ +
            static_cast<std::size_t>(task)) *
               2 +
           (version == VersionKind::Primary ? 0 : 1);
  }

  /// Lazy-mode first-touch hook: a no-op pointer test for eager caches.
  void touch_column(MachineId machine) const {
    if (column_ready_ == nullptr) return;
    if (!column_ready_[static_cast<std::size_t>(machine)].load(
            std::memory_order_acquire)) {
      build_column(machine);
    }
  }

  /// Fill one machine's exec_cycles/exec_energy/energy_need column.
  void fill_column(const workload::Scenario& scenario, MachineId machine) const;

  /// Lazy-mode column materialization (call_once per column; release-stores
  /// the ready flag the accessors acquire-load).
  void build_column(MachineId machine) const;

  std::size_t num_tasks_ = 0;
  std::size_t num_machines_ = 0;
  /// Tables are mutable for the Lazy mode's first-touch memoization — the
  /// logical value of every entry is fixed at construction.
  mutable std::vector<Cycles> exec_cycles_;   ///< |M| x |T| x 2
  mutable std::vector<double> exec_energy_;   ///< |M| x |T| x 2
  mutable std::vector<double> energy_need_;   ///< |M| x |T| x 2
  std::vector<Cycles> min_exec_cycles_;       ///< |T| x 2
  std::vector<double> primary_compute_energy_;  ///< |T| x |M|

  // Lazy-mode state (null / zero for eager modes).
  const workload::Scenario* scenario_ = nullptr;
  mutable std::unique_ptr<std::once_flag[]> column_once_;
  mutable std::unique_ptr<std::atomic<bool>[]> column_ready_;
  mutable std::atomic<std::size_t> columns_built_{0};
};

}  // namespace ahg::core
