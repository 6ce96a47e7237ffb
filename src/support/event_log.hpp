#pragma once
// Structured decision-event log for the observability layer (ahg::obs).
//
// Heuristics emit typed Events through an opt-in Sink: every SLRH / Max-Max
// mapping decision carries the chosen (task, version), its objective score
// with the per-term breakdown (alpha*T100/|T|, beta*TEC/TSE, gamma*AET/tau),
// the candidate-pool context, and the rejection reasons of higher-ranked
// candidates — enough to answer "why was task t mapped to machine j" from
// the trace alone (slrh_cli --trace-jsonl writes it; examples/trace_inspect
// reads it back).
//
// The SLRH, Max-Max and churn drivers emit through core::Taps, which states
// the null-handle contract (core/taps.hpp).
//
// Sinks must be thread-safe: the weight tuner runs solvers on the global
// thread pool and events from concurrent runs interleave (each JSONL line is
// written atomically; use Event::alpha/beta to attribute lines to runs).

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/units.hpp"
#include "support/version.hpp"

namespace ahg::obs {

class JsonWriter;

enum class EventKind : std::uint8_t {
  RunBegin,    ///< heuristic run started (weights, scenario shape)
  RunEnd,      ///< heuristic run finished (T100, AET, feasibility, wall time)
  PoolBuilt,   ///< candidate pool constructed for (machine, timestep)
  MapDecision, ///< a subtask was committed to a machine
  Stall,       ///< pool non-empty but nothing could start within the horizon
  TunerPoint,  ///< one (alpha, beta) grid point evaluated
  TunerBest,   ///< tuner finished; the optimal point
  MachineDeparture,  ///< a machine left the grid mid-run (churn)
  MachineJoin,       ///< a late machine became available (churn)
  OrphanReturn,      ///< an orphaned subtask was returned to the pool
};

/// Stable wire names ("run_begin", "map", ...) used as the JSONL "type" field.
const char* to_string(EventKind kind);

/// Weighted objective terms: value = t100 - tec + aet (AET term carries the
/// sign chosen by AetSign).
struct TermBreakdown {
  double t100 = 0.0;
  double tec = 0.0;
  double aet = 0.0;
  double value = 0.0;
};

/// One pool entry as the decision saw it: its score and, when it ranked
/// above the chosen candidate but was passed over, why.
struct CandidateTrace {
  TaskId task = kInvalidTask;
  VersionKind version = VersionKind::Secondary;
  double score = 0.0;
  /// Empty = chosen (or not reached); otherwise "already_assigned",
  /// "energy_exhausted", "beyond_horizon", ...
  std::string reject;
};

/// A single telemetry record. Which fields are meaningful depends on `kind`;
/// serialization writes only the populated ones.
struct Event {
  EventKind kind = EventKind::MapDecision;
  std::string heuristic;  ///< "SLRH-1", "Max-Max", "tuner", ...

  // Decision context.
  Cycles clock = -1;      ///< SLRH timestep clock; Max-Max selection round
  MachineId machine = kInvalidMachine;
  TaskId task = kInvalidTask;
  VersionKind version = VersionKind::Secondary;
  double score = 0.0;
  TermBreakdown terms;
  Cycles start = -1;   ///< committed start cycle (MapDecision)
  Cycles finish = -1;  ///< committed finish cycle (MapDecision)
  std::size_t pool_size = 0;
  std::vector<CandidateTrace> candidates;

  // Pool-admission rejection counts (PoolBuilt), by feasibility reason.
  std::size_t rejected_unreleased = 0;
  std::size_t rejected_assigned = 0;
  std::size_t rejected_parents = 0;
  std::size_t rejected_energy = 0;

  // Churn payload (MachineDeparture / OrphanReturn). `terms` carries the
  // objective delta across the departure when populated.
  std::size_t orphaned = 0;     ///< unfinished subtasks returned to the pool
  std::size_t invalidated = 0;  ///< completed subtasks whose outputs were lost
  double energy_forfeited = 0.0;

  // Run / tuner payload (RunBegin, RunEnd, TunerPoint, TunerBest).
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;
  std::size_t t100 = 0;
  std::size_t assigned = 0;
  Cycles aet = -1;
  bool feasible = false;
  double wall_seconds = 0.0;

  std::string note;  ///< free-form annotation (stall reasons, scenario shape)

  /// Serialize as a single JSON object (no trailing newline).
  void write_json(JsonWriter& json) const;
};

/// Event consumer + optional metrics destination. The registry is NOT owned;
/// it may be null (events only) and the sink pointer itself may be null
/// everywhere in the heuristic API (no telemetry at all).
class Sink {
 public:
  explicit Sink(MetricsRegistry* metrics = nullptr) noexcept : metrics_(metrics) {}
  virtual ~Sink() = default;

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Consume one event. Must be thread-safe.
  virtual void emit(const Event& event) = 0;

  /// Cheap pre-filter so hot loops can skip assembling bulky events nobody
  /// wants (e.g. per-pool events). Defaults to "everything".
  virtual bool wants(EventKind) const noexcept { return true; }

  MetricsRegistry* metrics() const noexcept { return metrics_; }

 protected:
  MetricsRegistry* metrics_;
};

/// Writes each event as one JSON object per line. Thread-safe (one mutex
/// around the stream); lines are atomic.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& os, MetricsRegistry* metrics = nullptr) noexcept
      : Sink(metrics), os_(os) {}

  void emit(const Event& event) override;

  std::size_t events_written() const noexcept;

 private:
  mutable std::mutex mutex_;
  std::ostream& os_;
  std::size_t count_ = 0;
};

/// Buffers events in memory — for tests and in-process inspection.
class CollectSink final : public Sink {
 public:
  explicit CollectSink(MetricsRegistry* metrics = nullptr) noexcept
      : Sink(metrics) {}

  void emit(const Event& event) override;

  /// Snapshot of everything collected so far.
  std::vector<Event> events() const;
  std::size_t count(EventKind kind) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Forwards events to an optional downstream sink while exposing its own
/// metrics registry — how the evaluation runner collects per-case phase
/// metrics without requiring callers to attach a sink.
class ForwardSink final : public Sink {
 public:
  ForwardSink(MetricsRegistry* metrics, Sink* downstream) noexcept
      : Sink(metrics), downstream_(downstream) {}

  void emit(const Event& event) override {
    if (downstream_ != nullptr) downstream_->emit(event);
  }
  bool wants(EventKind kind) const noexcept override {
    return downstream_ != nullptr && downstream_->wants(kind);
  }

 private:
  Sink* downstream_;
};

}  // namespace ahg::obs
