#pragma once
// Incremental ready-task frontier for the clock-driven SLRH driver.
//
// The machine-independent part of SLRH pool admission — released, not yet
// assigned, every parent assigned — changes only when the clock advances past
// a release time or a placement commits. Instead of re-probing all |T|
// subtasks per (machine, timestep), a ReadyFrontier maintains that set
// incrementally: a release-time-sorted cursor advanced with the clock, a
// per-task unassigned-parent count decremented on commit, and the log of
// tasks in the order they joined the ready set. The set itself is not kept:
// the SLRH activation index reads the joined() log, and everything else
// needs only its size.
//
// The frontier also keeps the admission tallies the decision trace reports
// (unreleased / already-assigned / parents-unassigned) as running counters,
// so the telemetry path needs no per-task probes either.
//
// Invariants (asserted by tests/test_frontier.cpp against brute force):
//   joined() minus assigned tasks
//       == { t : release(t) <= clock, !assigned(t), parents assigned }
//   num_ready() == the size of that set
//   num_unreleased() == |{ t : release(t) > clock }|
//   num_assigned_released() == |{ t : release(t) <= clock, assigned(t) }|
//   num_parents_blocked() == |{ t : release(t) <= clock, !assigned(t),
//                                  some parent unassigned }|

#include <cstdint>
#include <span>
#include <vector>

#include "sim/schedule.hpp"
#include "support/units.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class TaskLedger;
}  // namespace ahg::obs

namespace ahg::core {

class ReadyFrontier {
 public:
  /// Initialise from the schedule's CURRENT state (the driver may resume an
  /// existing, partially filled schedule — the machine-loss extension does).
  /// No task is released until advance_to() is called.
  ReadyFrontier(const workload::Scenario& scenario, const sim::Schedule& schedule);

  /// Optional task-major lifecycle ledger (not owned, may be null — the
  /// default changes nothing). With a ledger attached, advance_to records a
  /// released transition per newly released task (stamped with its RELEASE
  /// time) and every ready-set join records a frontier-ready
  /// transition at the frontier's current clock.
  void set_ledger(obs::TaskLedger* ledger) noexcept { ledger_ = ledger; }

  /// Release every task with release(t) <= clock. Monotone: the clock never
  /// moves backwards, so calls with a smaller clock are no-ops.
  void advance_to(Cycles clock);

  /// Record a committed placement: the task leaves the ready set and each
  /// child's unassigned-parent count drops (children whose count reaches
  /// zero join the ready set if already released). Must be called for every
  /// commit the driver makes, immediately after it.
  void on_commit(TaskId task);

  /// Released, unassigned tasks whose parents are all assigned.
  std::size_t num_ready() const noexcept { return num_ready_; }

  /// Every task that has joined the ready set, in joining order. A task
  /// joins at most once (it leaves only by committing, for good), so a
  /// reader that remembers how much it has read picks up exactly the tasks
  /// that became ready since (the SLRH activation index does, per machine).
  std::span<const TaskId> joined() const noexcept { return joined_; }

  /// Monotone counter bumped on every commit and on every ready-set join
  /// (releases and commit-unblocked children alike). Two equal revisions
  /// bracket a window in which the ready set — the machine-independent half
  /// of pool admission — did not change and no placement was committed, so
  /// no energy ledger moved either; the sweep accelerator (core/sweep.hpp)
  /// keys its cached verdicts on it alone.
  std::uint64_t revision() const noexcept { return revision_; }

  std::size_t num_unreleased() const noexcept {
    return release_order_.size() - cursor_;
  }
  std::size_t num_assigned_released() const noexcept { return assigned_released_; }
  std::size_t num_parents_blocked() const noexcept {
    return cursor_ - assigned_released_ - num_ready_;
  }

 private:
  void join(TaskId task);

  const workload::Scenario* scenario_;
  obs::TaskLedger* ledger_ = nullptr;
  Cycles clock_ = 0;  ///< last advance_to clock (ledger timestamps only)
  std::vector<TaskId> release_order_;  ///< all tasks, sorted by (release, id)
  std::size_t cursor_ = 0;             ///< first index not yet released
  std::vector<std::uint32_t> unassigned_parents_;
  std::vector<std::uint8_t> released_;
  std::vector<std::uint8_t> assigned_;
  std::vector<TaskId> joined_;  ///< ready-set joins, in order
  std::size_t num_ready_ = 0;
  std::size_t assigned_released_ = 0;
  std::uint64_t revision_ = 0;
};

}  // namespace ahg::core
