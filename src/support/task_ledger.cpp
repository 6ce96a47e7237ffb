#include "support/task_ledger.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>

#include "support/checked.hpp"
#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"

namespace ahg::obs {

TaskLedger::TaskLedger(std::size_t num_tasks) : num_tasks_(num_tasks) {
  records_.resize(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    records_[t].task = static_cast<TaskId>(t);
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

void TaskLedger::on_released(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  if (r.released >= 0) return;
  r.released = clock;
  if (r.state == TaskState::None) {
    r.state = TaskState::Released;
    ++transitions_recorded_;
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
  r.state = TaskState::FrontierReady;
  ++transitions_recorded_;
}

void TaskLedger::on_pooled_slow(TaskId task, Cycles clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  if (pooled_[static_cast<std::size_t>(task)].load(std::memory_order_relaxed) != 0) {
    return;  // lost the race to another machine's sweep
  }
  pooled_[static_cast<std::size_t>(task)].store(1, std::memory_order_relaxed);
  if (r.first_pooled < 0) r.first_pooled = clock;
  r.state = TaskState::Pooled;
  ++transitions_recorded_;
}

void TaskLedger::on_placement(TaskPlacementSample sample) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(sample.task);
  // Assigned tasks never re-enter a pool; saturating the flag keeps the
  // fast path fast without a per-pool re-check.
  pooled_[static_cast<std::size_t>(sample.task)].store(1, std::memory_order_relaxed);
  ++r.attempts;
  r.state = TaskState::Completed;
  r.machine = sample.machine;
  r.version = sample.version;
  r.admitted_clock = sample.decision_clock;
  r.exec_start = sample.start;
  r.exec_finish = sample.finish;
  // The steps a placement stands for: admission, execution and completion,
  // a remap on re-admission, the first incoming transfer, and each parent's
  // outgoing transfer.
  std::uint64_t steps = r.attempts > 1 ? 4 : 3;
  bool any_timed = false;
  for (const TaskInputEdge& edge : sample.inputs) {
    if (edge.finish <= edge.start) continue;
    any_timed = true;
    if (edge.parent != kInvalidTask) ++steps;
  }
  transitions_recorded_ += steps + (any_timed ? 1 : 0);
  r.inputs = std::move(sample.inputs);
}

void TaskLedger::on_orphaned(TaskId task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  ++r.orphan_count;
  pooled_[static_cast<std::size_t>(task)].store(0, std::memory_order_relaxed);
  r.state = TaskState::Orphaned;
  ++transitions_recorded_;
}

void TaskLedger::on_invalidated(TaskId task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  ++r.invalidated_count;
  pooled_[static_cast<std::size_t>(task)].store(0, std::memory_order_relaxed);
  r.state = TaskState::Invalidated;
  ++transitions_recorded_;
}

void TaskLedger::on_degraded(TaskId task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TaskRecord& r = rec(task);
  r.degraded = true;
  r.state = TaskState::Degraded;
  ++transitions_recorded_;
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

std::size_t TaskLedger::memory_bound_bytes() const {
  return checked_mul(num_tasks_, sizeof(TaskRecord) + sizeof(std::atomic<std::uint8_t>),
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

MetricsSnapshot ledger_metrics_snapshot(const TaskLedger& ledger) {
  // Simulation-seconds buckets (1 cycle = 0.1 s): sub-timestep up to several
  // horizons.
  static constexpr std::array<double, 10> kBounds = {
      0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0};

  MetricsRegistry registry;
  Histogram& released = registry.histogram("ledger.dwell_released_seconds", kBounds);
  Histogram& ready = registry.histogram("ledger.dwell_ready_seconds", kBounds);
  Histogram& pooled = registry.histogram("ledger.dwell_pooled_seconds", kBounds);
  Histogram& admitted = registry.histogram("ledger.dwell_admitted_seconds", kBounds);
  Histogram& input = registry.histogram("ledger.input_transfer_seconds", kBounds);
  Histogram& exec = registry.histogram("ledger.exec_seconds", kBounds);

  const auto observe_delta = [](Histogram& h, Cycles from, Cycles to) {
    if (from < 0 || to < from) return;  // unobserved, or round-index clocks
    h.observe(seconds_from_cycles(to - from));
  };

  std::uint64_t n_released = 0, n_completed = 0, n_orphaned = 0;
  std::uint64_t n_invalidated = 0, n_remapped = 0, n_degraded = 0;
  for (const TaskRecord& r : ledger.records()) {
    if (r.released >= 0) ++n_released;
    if (r.frontier_ready >= 0) observe_delta(released, r.released, r.frontier_ready);
    if (r.first_pooled >= 0) observe_delta(ready, r.frontier_ready, r.first_pooled);
    if (r.admitted_clock >= 0) observe_delta(pooled, r.first_pooled, r.admitted_clock);
    if (r.exec_start >= 0) {
      observe_delta(admitted, r.admitted_clock, r.exec_start);
      observe_delta(exec, r.exec_start, r.exec_finish);
    }
    if (r.attempts > 0 && r.state == TaskState::Completed) ++n_completed;
    if (r.attempts > 1) ++n_remapped;
    n_orphaned += r.orphan_count;
    n_invalidated += r.invalidated_count;
    if (r.degraded) ++n_degraded;
    for (const TaskInputEdge& e : r.inputs) {
      if (e.finish > e.start) observe_delta(input, e.start, e.finish);
    }
  }
  registry.counter("ledger.tasks_released").add(n_released);
  registry.counter("ledger.tasks_completed").add(n_completed);
  registry.counter("ledger.tasks_orphaned").add(n_orphaned);
  registry.counter("ledger.tasks_invalidated").add(n_invalidated);
  registry.counter("ledger.tasks_remapped").add(n_remapped);
  registry.counter("ledger.tasks_degraded").add(n_degraded);
  registry.counter("ledger.transitions_recorded").add(ledger.transitions_recorded());
  return registry.snapshot();
}

}  // namespace ahg::obs
