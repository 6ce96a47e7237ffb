#pragma once
// Outcome of one heuristic run on one scenario.

#include <memory>
#include <utility>

#include "sim/schedule.hpp"
#include "support/units.hpp"

namespace ahg::core {

struct MappingResult {
  /// Every subtask received an assignment.
  bool complete = false;
  /// AET <= tau. Energy feasibility is guaranteed by construction (the
  /// ledger rejects overdraws), so complete && within_tau == fully feasible.
  bool within_tau = false;

  std::size_t t100 = 0;     ///< subtasks mapped at primary version
  std::size_t assigned = 0; ///< subtasks mapped at all
  Cycles aet = 0;           ///< application execution time, cycles
  double tec = 0.0;         ///< total energy consumed

  /// Heuristic execution (wall-clock) time in seconds — the quantity
  /// Figures 6 and 7 report.
  double wall_seconds = 0.0;

  /// Diagnostics: clock sweeps executed (SLRH) or selection rounds
  /// (Max-Max), and candidate pools constructed.
  std::size_t iterations = 0;
  std::size_t pools_built = 0;
  /// (machine, timestep) scopes the SLRH driver skipped via a cached
  /// cross-tick verdict instead of rebuilding the pool (SLRH only; see
  /// SlrhParams::pool_reuse). pools_built + pools_reused is the serial
  /// path's scope count for variant 1.
  std::size_t pools_reused = 0;

  /// The full schedule, for validation / trace export. Shared so results can
  /// be copied cheaply by the experiment harness.
  std::shared_ptr<const sim::Schedule> schedule;

  bool feasible() const noexcept { return complete && within_tau; }
};

/// Fill a finished run's outcome from its final schedule, which it takes.
inline void finalize_result(MappingResult& result,
                            std::shared_ptr<const sim::Schedule> schedule,
                            Cycles tau, double wall_seconds) {
  result.wall_seconds = wall_seconds;
  result.complete = schedule->complete();
  result.assigned = schedule->num_assigned();
  result.t100 = schedule->t100();
  result.aet = schedule->aet();
  result.tec = schedule->tec();
  result.within_tau = schedule->aet() <= tau;
  result.schedule = std::move(schedule);
}

}  // namespace ahg::core
