#pragma once
// Precomputed pure-scenario quantities for the heuristic inner loops.
//
// Pool admission and candidate scoring repeatedly evaluate quantities that
// are pure functions of the static scenario — execution durations, execution
// energies, and the conservative admission "energy need" (execution energy
// plus the worst-case outgoing-communication energy over all child edges,
// paper §IV). The clock-driven SLRH driver would re-derive them
// O(timesteps × machines × |T| × degree) times.
//
// The cache stores only what cannot be derived cheaply: a machine-major copy
// of the ETC seconds and the energy need of both versions — 24 B per
// (task, machine) pair — plus the per-task minimum execution cycles. The
// execution cycles and energies are recomputed from the stored ETC seconds
// on every read (a multiply and a ceil, plus a divide and a multiply for an
// energy).
//
// Bit-identity contract: every stored entry and every derived accessor is
// produced by the SAME expression, in the SAME operation order, as the
// uncached functions in feasibility.cpp / scoring.cpp evaluate on demand. A
// cached read therefore returns a bit-identical value, and heuristics driven
// through the cache make exactly the same decisions as the uncached
// functions would (checked entry by entry against those functions by
// tests/test_determinism.cpp; the golden schedule digests in
// tests/test_golden_schedules.cpp pin the resulting schedules).
//
// Build: the worst-case hold of a child edge lasts as long as a transfer at
// the grid's lowest bandwidth, which depends on (task, version, child) only
// — the machine enters through its transmit power. So the hold cycles are
// derived once per (task, version), and each machine column (one contiguous
// range, filled in parallel over the global work-stealing pool) only sums
// the machine's transmit energy over them: O(|T|·|M|·degree) in all.
//
// A cache is immutable after construction and safe to share read-only across
// threads — the tuner builds one per scenario and all parallel_for workers
// probing weight grid points reuse it. It keeps no reference to the
// scenario.

#include <vector>

#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"
#include "workload/versions.hpp"

namespace ahg::core {

class ScenarioCache {
 public:
  explicit ScenarioCache(const workload::Scenario& scenario);

  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t num_machines() const noexcept { return num_machines_; }

  /// scenario.exec_cycles(task, machine, version), from the stored ETC.
  Cycles exec_cycles(TaskId task, MachineId machine, VersionKind version) const {
    return versions_.exec_cycles(etc_seconds_[cell(task, machine)], version);
  }

  /// core::exec_energy(scenario, task, machine, version): the expression of
  /// MachineSpec::compute_energy on the derived cycles.
  double exec_energy(TaskId task, MachineId machine, VersionKind version) const {
    return compute_power_[static_cast<std::size_t>(machine)] *
           seconds_from_cycles(exec_cycles(task, machine, version));
  }

  /// The admission "energy need": exec_energy + worst_case_outgoing_energy —
  /// the quantity version_fits_energy compares against the machine's
  /// available battery. Stored: it is the one quantity with a child walk.
  double energy_need(TaskId task, MachineId machine, VersionKind version) const {
    return energy_need_[cell(task, machine) * 2 + version_slot(version)];
  }

  /// min over machines of exec_cycles(task, ·, version) — the per-task term
  /// of Max-Max's critical-path deadline lookahead.
  Cycles min_exec_cycles(TaskId task, VersionKind version) const {
    return min_exec_cycles_[static_cast<std::size_t>(task) * 2 + version_slot(version)];
  }

  /// Machine columns built: always num_machines() (every column is filled at
  /// construction).
  std::size_t columns_built() const noexcept { return num_machines_; }

  /// Storage in bytes: 24 per (task, machine) pair, 16 per task for the
  /// minimum execution cycles, 8 per machine for its compute power. Fixed at
  /// construction; exported as the memory.scenario_cache_bytes gauge.
  std::size_t memory_bound_bytes() const noexcept {
    return etc_seconds_.capacity() * sizeof(double) +
           energy_need_.capacity() * sizeof(double) +
           min_exec_cycles_.capacity() * sizeof(Cycles) +
           compute_power_.capacity() * sizeof(double);
  }

 private:
  static std::size_t version_slot(VersionKind version) noexcept {
    return version == VersionKind::Primary ? 0 : 1;
  }

  /// MACHINE-major: one machine's whole column is contiguous. The SLRH hot
  /// path — the batched pool gather — reads a fixed machine's entries across
  /// many ready tasks, so this layout turns the gather into near-sequential
  /// loads at |M|=512, and it makes the parallel build trivially safe: a
  /// column is one disjoint range per machine.
  std::size_t cell(TaskId task, MachineId machine) const noexcept {
    return static_cast<std::size_t>(machine) * num_tasks_ +
           static_cast<std::size_t>(task);
  }

  std::size_t num_tasks_ = 0;
  std::size_t num_machines_ = 0;
  workload::VersionModel versions_;
  std::vector<double> compute_power_;    ///< |M|
  std::vector<double> etc_seconds_;      ///< |M| x |T|
  std::vector<double> energy_need_;      ///< |M| x |T| x 2
  std::vector<Cycles> min_exec_cycles_;  ///< |T| x 2
};

}  // namespace ahg::core
