#pragma once
// Flight recorder for the observability layer (ahg::obs): a bounded ring of
// fixed per-timestep Frames sampled at every SLRH / Max-Max clock tick, plus
// a bounded ring of named wall-clock Spans (pool builds, whole runs, churn
// recoveries).
//
// Drivers reach a recorder through core::Taps, which states the null-handle
// contract (core/taps.hpp).
//
// Memory bound: the recorder never holds more than
//   max_frames * (sizeof(Frame) + num_machines * 16 bytes)
// + max_spans  * (sizeof(Span) + span name)
// — see memory_bound_bytes(). When a ring fills, the OLDEST entry is
// overwritten and frames_dropped()/spans_dropped() count the loss, so a
// pathological million-timestep run records its tail instead of dying.
//
// This header lives in ahg_support and must not depend on sim/ or core/:
// Frame carries plain scalars and vectors; core::Taps assembles them (the
// same layering rule obs::Event follows).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/units.hpp"

namespace ahg::obs {

class JsonValue;

/// One per-timestep sample of everything the paper's trajectory plots need:
/// the weighted objective-term breakdown, mapping progress, pool / frontier
/// activity, per-machine battery and availability, and the cumulative churn
/// tallies. All fields are plain data; "this timestep" fields reset each
/// tick, "cumulative" fields are monotone over the run.
struct Frame {
  std::string heuristic;     ///< "SLRH-1".."SLRH-3", "Max-Max"
  Cycles clock = 0;          ///< SLRH: simulation clock; Max-Max: round index
  double wall_seconds = 0.0; ///< capture time relative to recorder start

  // Objective-term breakdown at end of tick (see core::objective_terms):
  // value = term_t100 - term_tec + term_aet.
  double term_t100 = 0.0;  ///< alpha * T100 / |T|
  double term_tec = 0.0;   ///< beta * TEC / TSE (enters negatively)
  double term_aet = 0.0;   ///< gamma * (tau - AET) / tau (sign per AetSign)
  double objective = 0.0;

  // Mapping progress.
  std::uint64_t assigned = 0;  ///< subtasks mapped so far
  std::uint64_t t100 = 0;      ///< of those, at the primary (100%) version
  double tec = 0.0;            ///< total energy consumed (committed)
  Cycles aet = 0;              ///< application end time so far

  // Re-plan activity this timestep.
  std::uint64_t pools_built = 0;    ///< pool (re)builds this tick
  std::uint64_t maps = 0;           ///< placements committed this tick
  std::uint64_t last_pool_size = 0; ///< size of the last pool built this tick
  std::uint64_t pools_reused = 0;   ///< machine scopes skipped via cached verdicts
  std::uint64_t frontier_ready = 0; ///< ready set size at end of tick
  std::uint64_t frontier_unreleased = 0; ///< tasks not yet arrived
  double pool_build_seconds = 0.0;  ///< wall time inside pool builds this tick
  double timestep_seconds = 0.0;    ///< wall time of the whole tick

  // Cumulative churn context (zero on churn-free runs).
  std::uint64_t departures = 0;
  std::uint64_t orphaned = 0;
  std::uint64_t invalidated = 0;
  double energy_forfeited = 0.0;

  // Per-machine state at end of tick, indexed by MachineId.
  std::vector<double> battery_fraction;  ///< available / capacity, in [0, 1]
  std::vector<Cycles> busy_until;        ///< machine_ready clock
};

/// One named wall-clock interval (a pool build, a whole run, a churn
/// recovery). Times are seconds relative to recorder start, matching
/// Frame::wall_seconds so exporters can interleave the two streams.
struct Span {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  Cycles clock = -1;                     ///< -1 when not tied to a tick
  MachineId machine = kInvalidMachine;   ///< kInvalidMachine when global
};

/// Bounded-memory recorder. record()/add_span() are thread-safe; the
/// snapshot accessors return entries oldest-first.
class FlightRecorder {
 public:
  struct Options {
    /// Ring capacities. The defaults are sized for the overhead budget, not
    /// just for memory: record() cycles through the ring, so its footprint
    /// is cache working set — a 4096-frame ring measurably slows the SLRH
    /// loop purely through eviction. Analysis runs that want full history
    /// should use dense_options().
    std::size_t max_frames = 1024;
    std::size_t max_spans = 4096;
    /// Idle-tick decimation for the ≤3% overhead budget: ticks that COMMIT a
    /// mapping are always sampled; a tick that only polled (built pools but
    /// mapped nothing — the overwhelming majority of a long SLRH run) is
    /// sampled once per `idle_stride` such ticks. Recording every poll tick
    /// would cost more than the scheduling itself while adding frames that
    /// differ only in `clock`. Set 1 to sample literally every tick.
    std::uint64_t idle_stride = 256;
    /// Pool-build span sampling, same budget: one build in `span_stride` is
    /// wall-clock timed and emitted as a "pool_build" span (an untimed build
    /// still counts in Frame::pools_built). Empty polls are ~100 ns on the
    /// frontier fast path — timing each one would double its cost. Set 1 to
    /// time every build.
    std::uint64_t span_stride = 256;
  };

  /// Full-fidelity configuration for analysis runs (the CLI exporters use
  /// it): every tick sampled, every pool build timed, deep rings. Overhead
  /// is paid — don't benchmark with this.
  static Options dense_options() {
    Options options;
    options.max_frames = 1 << 16;
    options.max_spans = 1 << 17;
    options.idle_stride = 1;
    options.span_stride = 1;
    return options;
  }

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);

  const Options& options() const noexcept { return options_; }

  /// Monotonic seconds since the recorder was constructed — the time base
  /// for Frame::wall_seconds and Span::start_seconds.
  double now_seconds() const;

  /// Append a copy of `frame` (overwriting the oldest when the ring is
  /// full). Taking a const reference lets drivers reuse one scratch Frame
  /// across ticks — after the ring warms up, a record() is allocation-free
  /// on both sides.
  void record(const Frame& frame);

  void add_span(std::string_view name, double start_seconds,
                double duration_seconds, Cycles clock = -1,
                MachineId machine = kInvalidMachine);

  std::vector<Frame> frames() const;  ///< oldest-first
  std::vector<Span> spans() const;    ///< oldest-first

  std::uint64_t frames_recorded() const;  ///< total record() calls
  std::uint64_t frames_dropped() const;   ///< overwritten by ring wrap
  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;

  /// Documented worst-case heap footprint of the rings for runs over
  /// `num_machines` machines (frame payload + per-machine vectors + spans).
  std::size_t memory_bound_bytes(std::size_t num_machines) const noexcept;

  /// One frame per line in JsonWriter form — the `.frames.jsonl` format
  /// consumed by examples/run_report and examples/run_diff.
  void write_frames_jsonl(std::ostream& os) const;

 private:
  Options options_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::vector<Frame> frames_;  ///< ring storage, frames_head_ = oldest
  std::size_t frames_head_ = 0;
  std::uint64_t frames_recorded_ = 0;
  std::vector<Span> spans_;
  std::size_t spans_head_ = 0;
  std::uint64_t spans_recorded_ = 0;
};

/// Rebuild one frame from its write_frames_jsonl line. Absent fields keep
/// their defaults and unknown keys are ignored, so recordings from older
/// builds still parse. A present count or clock field (assigned, t100,
/// pools, maps, pool_size, reused, ready, unreleased, departures, orphaned,
/// invalidated, clock, aet, busy_until[]) must be an integral number in
/// [0, 2^53]; anything else throws PreconditionError naming the field.
Frame frame_from_json(const JsonValue& value);

/// Parse a whole .frames.jsonl stream (oldest-first, as written).
std::vector<Frame> read_frames_jsonl(std::istream& in);

/// Serialize one frame as a single JSON object (no trailing newline).
void write_frame_json(std::ostream& os, const Frame& frame);

}  // namespace ahg::obs
