#pragma once
// Test-only reference implementations. Production code keeps exactly one
// path per operation; these slow, obviously-correct versions exist only so
// tests can diff the fast paths against them.
//
//  - brute_force_fit: earliest fit on a timeline by checking every candidate
//    start (not_before and each interval end) against is_free.
//  - scan_pool_oracle: the SLRH pool U built the way the paper states it —
//    scan all |T| subtasks, classify admission per task with on-demand
//    energy derivations (no ScenarioCache, no ReadyFrontier), score each
//    candidate through score_candidate, sort.

#include <algorithm>
#include <limits>
#include <vector>

#include "core/feasibility.hpp"
#include "core/scoring.hpp"
#include "core/slrh.hpp"
#include "sim/schedule.hpp"
#include "sim/timeline.hpp"
#include "workload/scenario.hpp"

namespace ahg::test {

/// The minimal feasible start is not_before itself or some interval's end —
/// check them all against is_free.
inline Cycles brute_force_fit(const sim::Timeline& tl, Cycles not_before,
                              Cycles duration) {
  Cycles best = std::numeric_limits<Cycles>::max();
  const auto consider = [&](Cycles s) {
    if (s >= not_before && tl.is_free(s, duration)) best = std::min(best, s);
  };
  consider(not_before);
  for (const sim::Interval& iv : tl.intervals()) {
    consider(std::max(not_before, iv.end));
  }
  return best;
}

struct ScanPool {
  std::vector<core::SlrhPoolCandidate> pool;
  core::SlrhPoolRejects rejects;
};

/// Pool U for (machine, clock): every released subtask that is unassigned,
/// has all parents assigned, and whose secondary version fits the machine's
/// battery under the worst-case communication rule. Each candidate carries
/// its objective-maximising version (primary only if it fits too, the task
/// is not pinned by `params.secondary_only`, and it scores at least as high
/// as secondary); the pool is ordered by score descending, ties by task id.
/// Rejections are tallied by the first failing rule.
inline ScanPool scan_pool_oracle(const workload::Scenario& scenario,
                                 const sim::Schedule& schedule,
                                 const core::SlrhParams& params,
                                 const core::ObjectiveTotals& totals,
                                 MachineId machine, Cycles clock) {
  ScanPool out;
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId task = 0; task < num_tasks; ++task) {
    if (scenario.release(task) > clock) {
      ++out.rejects.unreleased;
      continue;
    }
    switch (core::classify_slrh_admission(scenario, schedule, task, machine)) {
      case core::AdmissionOutcome::AlreadyAssigned: ++out.rejects.assigned; continue;
      case core::AdmissionOutcome::ParentsUnassigned: ++out.rejects.parents; continue;
      case core::AdmissionOutcome::EnergyInfeasible: ++out.rejects.energy; continue;
      case core::AdmissionOutcome::Admissible: break;
    }
    const double secondary =
        core::score_candidate(scenario, schedule, params.weights, totals, task,
                              machine, VersionKind::Secondary, clock,
                              params.aet_sign);
    core::SlrhPoolCandidate cand{task, VersionKind::Secondary, secondary};
    const bool pinned = params.secondary_only != nullptr &&
                        (*params.secondary_only)[static_cast<std::size_t>(task)] != 0;
    if (!pinned && core::version_fits_energy(scenario, schedule, task, machine,
                                             VersionKind::Primary)) {
      const double primary =
          core::score_candidate(scenario, schedule, params.weights, totals, task,
                                machine, VersionKind::Primary, clock,
                                params.aet_sign);
      if (primary >= secondary) {
        cand.version = VersionKind::Primary;
        cand.score = primary;
      }
    }
    out.pool.push_back(cand);
  }
  std::sort(out.pool.begin(), out.pool.end(),
            [](const core::SlrhPoolCandidate& a, const core::SlrhPoolCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.task < b.task;
            });
  return out;
}

}  // namespace ahg::test
