#include "core/frontier.hpp"

#include <algorithm>

#include "support/contract.hpp"
#include "support/task_ledger.hpp"

namespace ahg::core {

ReadyFrontier::ReadyFrontier(const workload::Scenario& scenario,
                             const sim::Schedule& schedule)
    : scenario_(&scenario) {
  const std::size_t n = scenario.num_tasks();
  AHG_EXPECTS_MSG(schedule.num_tasks() == n, "schedule/scenario task count mismatch");
  unassigned_parents_.resize(n, 0);
  released_.assign(n, 0);
  assigned_.assign(n, 0);
  release_order_.resize(n);
  // Worst-case capacity up front (4 bytes/task): a join never reallocates,
  // so joined() spans stay valid across a whole pool build even as wide DAG
  // levels release thousands of tasks at once.
  joined_.reserve(n);

  const auto num_tasks = static_cast<TaskId>(n);
  for (TaskId t = 0; t < num_tasks; ++t) {
    release_order_[static_cast<std::size_t>(t)] = t;
    assigned_[static_cast<std::size_t>(t)] = schedule.is_assigned(t) ? 1 : 0;
    std::uint32_t missing = 0;
    for (const TaskId parent : scenario.dag.parents(t)) {
      if (!schedule.is_assigned(parent)) ++missing;
    }
    unassigned_parents_[static_cast<std::size_t>(t)] = missing;
  }
  std::sort(release_order_.begin(), release_order_.end(),
            [&scenario](TaskId a, TaskId b) {
              const Cycles ra = scenario.release(a);
              const Cycles rb = scenario.release(b);
              if (ra != rb) return ra < rb;
              return a < b;
            });
}

void ReadyFrontier::advance_to(Cycles clock) {
  if (ledger_ != nullptr && clock > clock_) clock_ = clock;
  while (cursor_ < release_order_.size() &&
         scenario_->release(release_order_[cursor_]) <= clock) {
    const TaskId t = release_order_[cursor_];
    released_[static_cast<std::size_t>(t)] = 1;
    if (ledger_ != nullptr) ledger_->on_released(t, scenario_->release(t));
    if (assigned_[static_cast<std::size_t>(t)] != 0) {
      ++assigned_released_;
    } else if (unassigned_parents_[static_cast<std::size_t>(t)] == 0) {
      join(t);
    }
    ++cursor_;
  }
}

void ReadyFrontier::on_commit(TaskId task) {
  const auto i = static_cast<std::size_t>(task);
  ++revision_;
  AHG_EXPECTS_MSG(task >= 0 && i < assigned_.size(), "task id out of range");
  AHG_EXPECTS_MSG(assigned_[i] == 0, "task committed twice");
  assigned_[i] = 1;
  if (released_[i] != 0) {
    // Released and unassigned (checked above): ready iff no parent is left.
    AHG_EXPECTS_MSG(unassigned_parents_[i] == 0, "committed task was not ready");
    ++assigned_released_;
    --num_ready_;
  }
  for (const TaskId child : scenario_->dag.children(task)) {
    const auto c = static_cast<std::size_t>(child);
    AHG_EXPECTS_MSG(unassigned_parents_[c] > 0, "parent count underflow");
    if (--unassigned_parents_[c] == 0 && released_[c] != 0 && assigned_[c] == 0) {
      join(child);
    }
  }
}

void ReadyFrontier::join(TaskId task) {
  ++revision_;
  ++num_ready_;
  joined_.push_back(task);
  // on_commit carries no clock; the last advance_to clock is the tick a
  // commit-unblocked child actually became ready at.
  if (ledger_ != nullptr) ledger_->on_frontier_ready(task, clock_);
}

}  // namespace ahg::core
