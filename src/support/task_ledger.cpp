#include "support/task_ledger.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "support/checked.hpp"
#include "support/contract.hpp"
#include "support/jsonl.hpp"

namespace ahg::obs {

const char* to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::None: return "none";
    case TaskState::Released: return "released";
    case TaskState::FrontierReady: return "frontier_ready";
    case TaskState::Pooled: return "pooled";
    case TaskState::Admitted: return "admitted";
    case TaskState::InputTransfer: return "input_transfer";
    case TaskState::Executing: return "executing";
    case TaskState::OutputTransfer: return "output_transfer";
    case TaskState::Completed: return "completed";
    case TaskState::Orphaned: return "orphaned";
    case TaskState::Invalidated: return "invalidated";
    case TaskState::Degraded: return "degraded";
    case TaskState::Remapped: return "remapped";
  }
  return "?";
}

TaskLedger::TaskLedger(std::size_t num_tasks, Options options)
    : options_(options), num_tasks_(num_tasks) {
  AHG_EXPECTS_MSG(options_.max_transitions >= 1,
                  "ledger needs at least one transition slot per task");
  records_.resize(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    records_[t].task = static_cast<TaskId>(t);
    // The history cap is charged by memory_bound_bytes() either way; paying
    // it here keeps push() allocation-free on the recording path.
    records_[t].history.reserve(options_.max_transitions);
  }
  pooled_ = std::make_unique<std::atomic<std::uint8_t>[]>(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    pooled_[t].store(0, std::memory_order_relaxed);
  }
}

TaskRecord& TaskLedger::rec(TaskId task) {
  const auto i = static_cast<std::size_t>(task);
  AHG_EXPECTS_MSG(task >= 0 && i < records_.size(), "ledger task id out of range");
  return records_[i];
}

const TaskRecord& TaskLedger::rec(TaskId task) const {
  const auto i = static_cast<std::size_t>(task);
  AHG_EXPECTS_MSG(task >= 0 && i < records_.size(), "ledger task id out of range");
  return records_[i];
}

void TaskLedger::push(TaskRecord& record, TaskState state, Cycles clock,
                      MachineId machine, std::int8_t version) {
  record.state = state;
  ++transitions_recorded_;
  if (record.history.size() >= options_.max_transitions) {
    ++transitions_dropped_;
    return;
  }
  TaskTransition t;
  t.state = state;
  t.clock = clock;
  t.machine = machine;
  t.version = version;
  t.attempt = record.attempts;
  record.history.push_back(t);
}

void TaskLedger::on_released(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  if (r.released >= 0) return;
  r.released = clock;
  if (r.state == TaskState::None) {
    push(r, TaskState::Released, clock, kInvalidMachine, -1);
  }
}

void TaskLedger::on_frontier_ready(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  // First-seen per life: churn (orphaned/invalidated/degraded) re-opens the
  // task, so a recovery segment's frontier re-fires record a fresh entry;
  // a plain drive_slrh resume re-firing for an already-ready task does not.
  switch (r.state) {
    case TaskState::None:
    case TaskState::Released:
    case TaskState::Orphaned:
    case TaskState::Invalidated:
    case TaskState::Degraded:
      break;
    default:
      return;
  }
  if (r.frontier_ready < 0) r.frontier_ready = clock;
  push(r, TaskState::FrontierReady, clock, kInvalidMachine, -1);
}

void TaskLedger::on_pooled_slow(TaskId task, Cycles clock, MachineId machine) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  if (pooled_[static_cast<std::size_t>(task)].load(std::memory_order_relaxed) != 0) {
    return;  // lost the race to another machine's sweep
  }
  pooled_[static_cast<std::size_t>(task)].store(1, std::memory_order_relaxed);
  if (r.first_pooled < 0) r.first_pooled = clock;
  push(r, TaskState::Pooled, clock, machine, -1);
}

void TaskLedger::on_placement(TaskPlacementSample sample) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(sample.task);
  // Assigned tasks never re-enter a pool; saturating the flag keeps the
  // fast path fast without a per-pool re-check.
  pooled_[static_cast<std::size_t>(sample.task)].store(1, std::memory_order_relaxed);
  ++r.attempts;
  if (r.attempts > 1) {
    push(r, TaskState::Remapped, sample.decision_clock, sample.machine,
         sample.version);
  }
  r.machine = sample.machine;
  r.version = sample.version;
  r.admitted_clock = sample.decision_clock;
  r.arrival = sample.arrival;
  r.exec_start = sample.start;
  r.exec_finish = sample.finish;
  push(r, TaskState::Admitted, sample.decision_clock, sample.machine,
       sample.version);

  Cycles first_transfer = -1;
  for (const TaskInputEdge& edge : sample.inputs) {
    const bool timed = edge.finish > edge.start;
    if (timed && (first_transfer < 0 || edge.start < first_transfer)) {
      first_transfer = edge.start;
    }
    // The parent's side of a cross-machine edge: its output departs
    // from_machine at edge.start. Pure history on an already-completed
    // record — milestone fields AND the terminal `state` stay untouched
    // (the parent is still Completed, not demoted to OutputTransfer).
    if (timed && edge.parent != kInvalidTask) {
      TaskRecord& parent = rec(edge.parent);
      const TaskState parent_state = parent.state;
      push(parent, TaskState::OutputTransfer, edge.start, edge.from_machine, -1);
      if (parent_state == TaskState::Completed) parent.state = parent_state;
    }
  }
  if (first_transfer >= 0) {
    push(r, TaskState::InputTransfer, first_transfer, sample.machine,
         sample.version);
  }
  push(r, TaskState::Executing, sample.start, sample.machine, sample.version);
  push(r, TaskState::Completed, sample.finish, sample.machine, sample.version);
  r.inputs = std::move(sample.inputs);
}

void TaskLedger::on_orphaned(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  ++r.orphan_count;
  pooled_[static_cast<std::size_t>(task)].store(0, std::memory_order_relaxed);
  push(r, TaskState::Orphaned, clock, r.machine, r.version);
}

void TaskLedger::on_invalidated(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  ++r.invalidated_count;
  pooled_[static_cast<std::size_t>(task)].store(0, std::memory_order_relaxed);
  push(r, TaskState::Invalidated, clock, r.machine, r.version);
}

void TaskLedger::on_degraded(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  r.degraded = true;
  push(r, TaskState::Degraded, clock, r.machine, r.version);
}

std::vector<TaskRecord> TaskLedger::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

TaskRecord TaskLedger::record(TaskId task) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rec(task);
}

std::uint64_t TaskLedger::transitions_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return transitions_recorded_;
}

std::uint64_t TaskLedger::transitions_dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return transitions_dropped_;
}

std::size_t TaskLedger::memory_bound_bytes() const {
  return checked_mul(num_tasks_,
                     sizeof(TaskRecord) +
                         checked_mul(options_.max_transitions,
                                     sizeof(TaskTransition),
                                     "ledger transition history") +
                         sizeof(std::atomic<std::uint8_t>),
                     "ledger capacity");
}

std::vector<TaskSpan> TaskLedger::spans() const {
  std::vector<TaskRecord> snapshot = records();
  std::vector<TaskSpan> out;
  for (const TaskRecord& r : snapshot) {
    if (r.exec_start < 0) continue;
    // Ready→start wait: from the moment the task could have run (ready, or
    // release when the frontier milestone is missing) to its actual start.
    const Cycles ready = r.frontier_ready >= 0 ? r.frontier_ready : r.released;
    if (ready >= 0 && r.exec_start > ready) {
      TaskSpan wait;
      wait.task = r.task;
      wait.kind = "wait";
      wait.machine = r.machine;
      wait.version = r.version;
      wait.attempt = r.attempts;
      wait.start = ready;
      wait.finish = r.exec_start;
      out.push_back(std::move(wait));
    }
    for (const TaskInputEdge& edge : r.inputs) {
      if (edge.finish <= edge.start) continue;  // free same-machine handoff
      TaskSpan input;
      input.task = r.task;
      input.parent = edge.parent;
      input.kind = "input";
      input.machine = r.machine;
      input.version = r.version;
      input.attempt = r.attempts;
      input.start = edge.start;
      input.finish = edge.finish;
      out.push_back(std::move(input));
    }
    TaskSpan exec;
    exec.task = r.task;
    exec.kind = "exec";
    exec.machine = r.machine;
    exec.version = r.version;
    exec.attempt = r.attempts;
    exec.start = r.exec_start;
    exec.finish = r.exec_finish;
    out.push_back(std::move(exec));
  }
  return out;
}

void write_task_span_json(std::ostream& os, const TaskSpan& span) {
  JsonWriter json;
  json.begin_object();
  json.field("task", static_cast<std::int64_t>(span.task));
  json.field("kind", span.kind);
  if (span.parent != kInvalidTask) {
    json.field("parent", static_cast<std::int64_t>(span.parent));
  }
  json.field("machine", static_cast<std::int64_t>(span.machine));
  if (span.version >= 0) {
    json.field("version", span.version == 0 ? "primary" : "secondary");
  }
  json.field("attempt", static_cast<std::uint64_t>(span.attempt));
  json.field("start", static_cast<std::int64_t>(span.start));
  json.field("finish", static_cast<std::int64_t>(span.finish));
  json.end_object();
  os << json.str();
}

void TaskLedger::write_spans_jsonl(std::ostream& os) const {
  for (const TaskSpan& span : spans()) {
    write_task_span_json(os, span);
    os << '\n';
  }
}

std::vector<TaskSpan> read_task_spans_jsonl(std::istream& in) {
  std::vector<TaskSpan> out;
  // Ids: -1 (invalid) up to the type's max; clocks: JSON-exact cycles.
  constexpr std::int64_t kMaxId = std::numeric_limits<TaskId>::max();
  static_assert(std::numeric_limits<MachineId>::max() == kMaxId);
  constexpr std::int64_t kMaxCycle = std::int64_t{1} << 53;
  for (const JsonValue& value : parse_jsonl(in)) {
    const auto id = [&](const char* name) {
      return checked_int(value.find(name), name, -1, kMaxId, -1);
    };
    TaskSpan span;
    span.task = static_cast<TaskId>(id("task"));
    span.kind = value.get_string("kind", "");
    span.parent = static_cast<TaskId>(id("parent"));
    span.machine = static_cast<MachineId>(id("machine"));
    const std::string version = value.get_string("version", "");
    span.version = version == "primary" ? std::int8_t{0}
                   : version == "secondary" ? std::int8_t{1}
                                            : std::int8_t{-1};
    span.attempt = static_cast<std::uint32_t>(checked_int(
        value.find("attempt"), "attempt", 0, std::numeric_limits<std::uint32_t>::max()));
    span.start = checked_int(value.find("start"), "start", 0, kMaxCycle);
    span.finish = checked_int(value.find("finish"), "finish", 0, kMaxCycle);
    out.push_back(std::move(span));
  }
  return out;
}

}  // namespace ahg::obs
