#pragma once
// Machine-churn fault injection with SLRH mid-run recovery (DESIGN.md §8).
//
// The paper's grid is *ad hoc*: machines wander out of wireless range and
// die when batteries drain. This extension makes that happen mid-run. A
// Scenario carries per-machine presence windows (workload::generate_machine_
// churn draws them); run_slrh_with_churn drives the normal SLRH timestep
// loop between departures and, at the first timestep on or after each
// departure, performs the recovery the receding-horizon design makes cheap:
//
//   * the departed machine vanishes from the machine sweep (and with it from
//     every candidate pool the frontier/scan builds);
//   * its unfinished subtasks are ORPHANED — returned, unassigned, to the
//     pool, along with every mapped descendant (the mapping stays
//     ancestor-closed, so the independent validator still passes mid-run);
//   * its completed subtasks SURVIVE iff every output edge was already
//     satisfied — transmitted off-machine before the departure, consumed on
//     the same machine by a surviving child, or carrying zero bits;
//   * the remainder of its battery is forfeited (the machine walked away
//     with its charge) and already-spent energy stays spent for kept work;
//   * recovery then either re-maps orphans normally (Remap: primary versions
//     still compete) or pins them to their secondary versions (Degrade:
//     finish cheaply, spend the saved energy elsewhere).
//
// Static Max-Max, by contrast, never reacts: replay_static_under_churn
// evaluates its fixed schedule against the same presence windows and counts
// what actually completes — reproducing the paper's dynamic-vs-static
// argument under volatility.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/result.hpp"
#include "core/slrh.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

/// What to do with subtasks whose work a departure destroyed.
enum class ChurnRecovery : std::uint8_t {
  Remap,    ///< re-map normally; primary versions still compete for slots
  Degrade,  ///< pin invalidated subtasks to their secondary versions
};

const char* to_string(ChurnRecovery recovery) noexcept;

struct ChurnRunOutcome {
  MappingResult result;
  std::size_t departures_processed = 0;  ///< departures inside the window
  std::size_t orphaned = 0;     ///< unfinished subtasks returned to the pool
  std::size_t invalidated = 0;  ///< other subtasks whose work was lost
  double energy_forfeited = 0.0;  ///< battery stranded on departed machines
};

/// Run SLRH against the scenario's machine presence windows. With no windows
/// set this is exactly run_slrh — bit-identical schedules (asserted by
/// tests/test_churn.cpp). params.sink additionally receives departure /
/// join / orphan events with per-term objective deltas across each recovery.
/// params.secondary_only must be null (the driver owns the degrade mask).
ChurnRunOutcome run_slrh_with_churn(const workload::Scenario& scenario,
                                    const SlrhParams& params,
                                    ChurnRecovery recovery = ChurnRecovery::Remap);

/// What a fixed (churn-blind) schedule actually achieves under the
/// scenario's presence windows. A subtask completes iff it was assigned, its
/// machine was present for its whole execution, every parent completed, and
/// every data-carrying input either stayed on-machine (parent completed
/// there) or its transfer fell inside both endpoints' windows.
struct StaticChurnReplay {
  std::size_t completed = 0;       ///< subtasks that actually finish
  std::size_t t100_completed = 0;  ///< completed at the primary version
  Cycles aet = 0;                  ///< finish of the last completed subtask
  double tec = 0.0;  ///< energy of completed work + its delivered transfers
};

StaticChurnReplay replay_static_under_churn(const workload::Scenario& scenario,
                                            const sim::Schedule& schedule);

namespace detail {

// --- invalidation closure (exposed for the property tests; DESIGN.md §4l) ---

/// Which assigned subtasks lost their work to the departures in `departed`
/// (indexed by machine): the least set that contains `extra_seed` (one flag
/// per task) and is closed under
///   R0  an assigned subtask on a departed machine that finishes after the
///       departure, or has a data-carrying output edge to an unmapped child
///       or to a child on another machine whose transfer is missing or
///       finishes after the departure, is lost;
///   R1  an assigned child of a lost subtask is lost;
///   R2  an assigned parent on a departed machine with a data-carrying edge
///       to a lost subtask is lost (its output has no surviving consumer).
/// kept = assigned && !invalid is therefore ancestor-closed.
std::vector<char> compute_invalid(const workload::Scenario& scenario,
                                  const sim::Schedule& schedule,
                                  const std::vector<char>& departed,
                                  std::vector<char> extra_seed);

/// Grow `invalid`, already closed under R1/R2 except for the tasks on
/// `worklist` (each flagged), to its closure under R1 and R2.
void close_invalid(const workload::Scenario& scenario, const sim::Schedule& schedule,
                   const std::vector<char>& departed, std::vector<char>& invalid,
                   std::vector<TaskId> worklist);

// --- survivor replay (shared with the machine-loss driver, core/adaptive) ---

/// Replay the kept mapping of `before` (assigned and not `invalid`) onto a
/// fresh schedule over `target`: comm events in record order, then
/// assignments in assignment order, then — in task order — the worst-case
/// hold each kept task owes every data edge to a child left unmapped. Times
/// and energies are copied; machine ids go through `machine_of` (original id
/// -> id in `target`). `invalid` (one flag per task) must already be closed
/// under R1 and R2 over `before` for `departed` (original ids); on return it
/// flags every task the replay dropped.
///
/// Re-taking a hold can FAIL: when the edge's original hold was settled
/// cheaply (or released on-machine) the freed headroom may have been spent
/// since, and the machine can no longer underwrite the worst-case
/// retransmission of that output. The placement invariant (every data edge
/// to an unmapped child is backed by a worst-case hold on the parent's
/// machine) is what makes future child placements safe, so it cannot be
/// waived: the task's work is lost instead. The replay flags it in
/// `invalid`, grows the closure from it (the closure is monotone, so this
/// equals closing the enlarged seed set afresh) and starts over. Each round
/// invalidates at least one more task, so this ends within |T| rounds.
std::shared_ptr<sim::Schedule> replay_survivors(const workload::Scenario& target,
                                                const sim::Schedule& before,
                                                std::vector<char>& invalid,
                                                const std::vector<char>& departed,
                                                const std::vector<MachineId>& machine_of);

}  // namespace detail

}  // namespace ahg::core
