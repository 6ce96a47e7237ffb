#pragma once
// Dynamic machine loss and online weight adaptation — the paper's stated
// future work (§VIII: the T100 multiplier "requires adjustment whenever the
// system environment changes") and the introduction's motivating scenario
// (assets "appear and disappear from the grid at unanticipated times").
//
// Loss model (documented in DESIGN.md §8):
//  * at the loss time T, every subtask ever mapped to the lost machine is
//    discarded — completed results on the lost device are NOT recovered
//    (the paper: recovering partial results "may prove too costly");
//  * every mapped descendant of a discarded subtask is discarded too (its
//    inputs may no longer be reproducible), keeping the surviving mapping
//    ancestor-closed — churn's invalidation closure (core/churn.hpp, DESIGN.md
//    §4l) seeded with every subtask on the lost machine;
//  * the surviving assignments and transfers are replayed onto a fresh
//    schedule over the degraded grid and worst-case reservations are re-taken
//    for edges to now-unmapped children, by the replay churn recovery uses;
//    a kept subtask whose machine can no longer afford such a hold is
//    discarded with its mapped descendants. The SLRH loop resumes at T;
//  * energy already sunk into discarded work is not re-charged to the
//    survivors (optimistic accounting — the study's focus is mapping
//    robustness, not waste accounting).

#include "core/heuristics.hpp"
#include "core/result.hpp"
#include "core/slrh.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

struct MachineLossEvent {
  MachineId machine = kInvalidMachine;  ///< id in the ORIGINAL grid
  Cycles time = 0;                      ///< loss time (clock cycles)
};

/// Online adjustment of the T100 multiplier when the machine set changes:
/// alpha is scaled by the ratio of degraded to original aggregate compute
/// capacity (the equivalent-computing-cycles total of §VI), mirroring the
/// paper's observation that the optimal alpha shrinks when resources are
/// lost; beta keeps its share of the remainder, gamma absorbs the rest.
Weights adapt_alpha(const Weights& weights, const workload::Scenario& original,
                    const workload::Scenario& degraded);

struct LossRunOutcome {
  MappingResult result;                 ///< final outcome on the degraded grid
  workload::Scenario degraded_scenario; ///< grid/ETC with the machine removed
  std::size_t completed_on_lost_machine = 0;  ///< finished there before T (lost)
  std::size_t discarded = 0;   ///< mapped subtasks invalidated by the loss
  Weights adapted_weights;     ///< weights used after the loss
};

/// Run SLRH (`variant`, on `clock`) on the full grid until the loss event
/// fires, apply the loss model above, optionally adapt alpha, and resume on
/// the degraded grid.
LossRunOutcome run_slrh_with_loss(const workload::Scenario& scenario,
                                  const Weights& weights,
                                  const MachineLossEvent& event,
                                  SlrhVariant variant = SlrhVariant::V1,
                                  const SlrhClock& clock = {}, bool adapt = true);

}  // namespace ahg::core
