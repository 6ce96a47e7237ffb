#pragma once
// Task-major lifecycle ledger for the observability layer (ahg::obs): one
// record per subtask holding its lifecycle milestones —
//   released → frontier-ready → pooled → completed
//   | orphaned | invalidated | degraded
// — its last committed placement (machine, version, clock, exec window),
// churn tallies, and the parent→child causal edges the critical-path
// analyzer (core/critical_path.hpp) walks.
//
// Drivers reach a ledger through core::Taps, which states the null-handle
// contract (core/taps.hpp).
//
// Memory bound: exactly num_tasks records allocated up front plus each
// task's input-edge list (bounded by its in-degree). See
// memory_bound_bytes().
//
// Overhead budget (bench_micro_kernels pins ≤1.05x at |T|=1024 via
// bench.ledger_overhead_ratio): the hot on_pooled() call — fired for every
// pool candidate on every machine sweep — takes a relaxed atomic pre-check
// and skips the mutex entirely after a task's first sighting; everything
// else fires at most a handful of times per task per life.
//
// This header lives in ahg_support and must not depend on sim/ or core/:
// records carry plain scalars; the drivers assemble TaskPlacementSample from
// their PlacementPlan equivalents (the same layering rule obs::Frame
// follows).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/units.hpp"
#include "support/version.hpp"

namespace ahg::obs {

/// Lifecycle states in paper order. A task's `state` field holds the LATEST
/// one; a committed placement goes straight to Completed.
enum class TaskState : std::uint8_t {
  None = 0,        ///< never observed
  Released,       ///< arrival time reached (scenario release)
  FrontierReady,  ///< released, unassigned, all parents assigned
  Pooled,         ///< entered some machine's candidate pool
  Completed,      ///< placement committed (its exec window is known)
  Orphaned,       ///< unfinished work lost to a machine departure
  Invalidated,    ///< completed/queued work lost to the churn cascade
  Degraded,       ///< pinned to the secondary version by churn recovery
};

/// One causal input edge of a placed task: parent produced the data on
/// `from_machine`, and it lands on the task's machine over [start, finish)
/// (start == finish for free same-machine handoffs at the parent's finish).
struct TaskInputEdge {
  TaskId parent = kInvalidTask;
  MachineId from_machine = kInvalidMachine;
  Cycles start = 0;
  Cycles finish = 0;
};

/// Everything a driver knows at commit time, in plain scalars (the support
/// layer cannot see core::PlacementPlan).
struct TaskPlacementSample {
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;
  std::int8_t version = 0;        ///< 0 primary, 1 secondary
  Cycles decision_clock = -1;     ///< clock/round the commit happened at
  Cycles start = 0;               ///< execution window [start, finish)
  Cycles finish = 0;
  std::vector<TaskInputEdge> inputs;
};

/// Full per-task record: first-seen milestones, the (last) committed
/// placement, churn tallies and causal inputs.
struct TaskRecord {
  TaskId task = kInvalidTask;
  TaskState state = TaskState::None;

  Cycles released = -1;        ///< scenario release time (first on_released)
  Cycles frontier_ready = -1;  ///< first time all parents were assigned
  Cycles first_pooled = -1;    ///< first candidate-pool entry
  Cycles admitted_clock = -1;  ///< decision clock of the LAST commit

  MachineId machine = kInvalidMachine;  ///< last committed placement
  std::int8_t version = -1;             ///< 0 primary, 1 secondary, -1 none
  Cycles exec_start = -1;
  Cycles exec_finish = -1;

  std::uint32_t attempts = 0;      ///< commits (>1 means remapped)
  std::uint32_t orphan_count = 0;
  std::uint32_t invalidated_count = 0;
  bool degraded = false;

  std::vector<TaskInputEdge> inputs;  ///< last placement's causal edges
};

/// One derived task-major span for the `.spans.jsonl` export: the execution
/// window ("exec"), each timed input transfer ("input", parent set), and the
/// ready→start wait ("wait"). Times are integer simulation cycles.
struct TaskSpan {
  TaskId task = kInvalidTask;
  TaskId parent = kInvalidTask;  ///< input spans only
  std::string kind;              ///< "exec" | "input" | "wait"
  MachineId machine = kInvalidMachine;
  std::int8_t version = -1;
  std::uint32_t attempt = 0;
  Cycles start = 0;
  Cycles finish = 0;
};

/// Bounded-memory, thread-safe per-subtask lifecycle recorder. All on_*
/// recorders are thread-safe; the snapshot accessors copy under the lock.
class TaskLedger {
 public:
  explicit TaskLedger(std::size_t num_tasks);

  std::size_t num_tasks() const noexcept { return num_tasks_; }

  // --- recorders (drivers call these; first-seen milestones only) -----------

  /// Task's release time reached. `clock` is the RELEASE time, not the
  /// observation time; recorded once.
  void on_released(TaskId task, Cycles clock);

  /// All parents assigned. Recorded once per life — re-recorded only after
  /// an orphan/invalidation re-opened the task.
  void on_frontier_ready(TaskId task, Cycles clock);

  /// Entered some machine's candidate pool. Hot path: after the first
  /// sighting this is a single relaxed atomic load. Re-armed by
  /// orphan/invalidation.
  void on_pooled(TaskId task, Cycles clock) {
    if (pooled_[static_cast<std::size_t>(task)].load(std::memory_order_relaxed) != 0) {
      return;
    }
    on_pooled_slow(task, clock);
  }

  /// Placement committed: stores the placement and its input edges and
  /// moves the task to Completed.
  void on_placement(TaskPlacementSample sample);

  void on_orphaned(TaskId task);     ///< unfinished work lost
  void on_invalidated(TaskId task);  ///< cascade loss
  void on_degraded(TaskId task);     ///< pinned to secondary

  // --- snapshots ------------------------------------------------------------

  std::vector<TaskRecord> records() const;  ///< indexed by TaskId
  TaskRecord record(TaskId task) const;

  /// Lifecycle steps seen: one per release, ready, pool, orphan, invalidate
  /// and degrade; a placement counts its remap (if any), admission, first
  /// timed input, execution, completion and one output step per timed input
  /// edge that names a parent.
  std::uint64_t transitions_recorded() const;

  /// Heap footprint of the record table: one record plus one pool flag per
  /// task (input-edge lists are additionally bounded by the DAG's total
  /// in-degree).
  std::size_t memory_bound_bytes() const;  ///< throws on size overflow

  /// Derived task-major spans (exec / input / wait), ordered by task id.
  std::vector<TaskSpan> spans() const;

  /// One span per line in JsonWriter form — the `.spans.jsonl` format
  /// slrh_cli --spans-jsonl writes and examples/run_report --spans reads.
  void write_spans_jsonl(std::ostream& os) const;

 private:
  void on_pooled_slow(TaskId task, Cycles clock);
  TaskRecord& rec(TaskId task);
  const TaskRecord& rec(TaskId task) const;

  std::size_t num_tasks_ = 0;

  mutable std::mutex mutex_;
  std::vector<TaskRecord> records_;
  /// Pool-membership sighting flags: the on_pooled fast path. Cleared (under
  /// the lock) when churn re-opens a task.
  std::unique_ptr<std::atomic<std::uint8_t>[]> pooled_;
  std::uint64_t transitions_recorded_ = 0;
};

/// Serialize one span as a single JSON object (no trailing newline).
void write_task_span_json(std::ostream& os, const TaskSpan& span);

/// Parse a whole `.spans.jsonl` stream, as written by write_spans_jsonl.
/// Absent fields keep their defaults; a present task, parent or machine must
/// be an integer in [-1, its type's max], attempt must fit uint32_t, and
/// start/finish must lie in [0, 2^53], else PreconditionError names it.
std::vector<TaskSpan> read_task_spans_jsonl(std::istream& in);

struct MetricsSnapshot;

/// Distill a TaskLedger into a metrics snapshot: per-state dwell-time
/// histograms in SIMULATION seconds (`ledger.dwell_released_seconds`
/// release→ready, `ledger.dwell_ready_seconds` ready→first pool,
/// `ledger.dwell_pooled_seconds` pool→admission, `ledger.dwell_admitted_seconds`
/// admission→exec start, `ledger.input_transfer_seconds` per timed input edge,
/// `ledger.exec_seconds` the execution window) plus lifecycle counters
/// (`ledger.tasks_released/_completed/_orphaned/_invalidated/_remapped/
/// _degraded`, `ledger.transitions_recorded`). Negative deltas —
/// possible when a driver stamps round indices rather than sim cycles
/// (Max-Max) — are skipped, never folded into a histogram.
MetricsSnapshot ledger_metrics_snapshot(const TaskLedger& ledger);

}  // namespace ahg::obs
