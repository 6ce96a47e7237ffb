#pragma once
// Wall-clock runtime profiler for the parallel engine (ahg::obs), plus the
// live-run heartbeat. See DESIGN.md §4i.
//
// The observability layer so far (Sink / FlightRecorder / TaskLedger) sees
// only SIMULATED time. RuntimeProfiler is its wall-clock sibling: attached
// to a ThreadPool (ThreadPool::set_profiler) it records, per worker, what
// the workers actually did — task run slices (with steal provenance), idle
// and park intervals, steal-attempt counters — and, per instrumented call
// site, named parallel_for region windows (the ScenarioCache build, the
// evaluation-matrix cell fan-out).
//
// Storage follows the FlightRecorder idiom: fixed-capacity rings that keep
// the NEWEST entries, so memory is bounded regardless of run length —
// memory_bound_bytes() states the bound. Each worker slot's ring has a
// single writer (that worker's thread); a per-slot mutex makes concurrent
// snapshot reads (heartbeat thread, exporters) ThreadSanitizer-clean, and
// monotone per-slot counters are relaxed atomics so the heartbeat can read
// them without touching the rings. Non-worker threads that help the pool
// (a parallel_for caller) lease one of a few "helper" slots on first use.
//
// Null contract (same as the other observability handles): the profiler is
// attached via a nullable pointer; null — the default — costs one relaxed
// load and branch per instrumentation point, no clock reads, and schedules
// are bit-identical (asserted by tests/test_determinism.cpp). Attached,
// the overhead budget is <= 1.05x on run_slrh at |T|=1024, pinned by the
// bench gate (bench.profiler_overhead_ratio).
//
// Lifetime: detach (set_profiler(nullptr)) before destroying the profiler,
// and only at a quiescent point — no tasks queued or running in the pool.
// Workers re-check the attached pointer after a park and drop the record if
// it changed, but a task that was popped while the profiler was attached
// will stamp its run slice into it.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ahg::obs {

class JsonValue;

/// Process resident-set size right now (VmRSS from /proc/self/status), in
/// bytes. 0 when unavailable (non-Linux).
std::uint64_t process_rss_bytes() noexcept;

/// Process peak resident-set size (VmHWM from /proc/self/status), in bytes.
/// 0 when unavailable (non-Linux).
std::uint64_t process_peak_rss_bytes() noexcept;

/// Total user+system CPU seconds consumed by the process (getrusage). 0
/// when unavailable. cpu_seconds / wall_seconds is the parallel-efficiency
/// numerator the bench meta block records.
double process_cpu_seconds() noexcept;

class RuntimeProfiler {
 public:
  /// Callers that are not pool workers (parallel_for helpers, the main
  /// thread) pass kNoWorker; the profiler leases them a helper slot.
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  enum class EventKind : std::uint8_t { Run, Idle };

  /// One ring entry: a run slice (one pool task, with steal provenance) or
  /// an idle interval (a park or a parallel_for wait). `region` is the
  /// interned region-name index + 1 that was open when the slice began
  /// (0 = none); resolve through region_names().
  struct WorkerEvent {
    EventKind kind = EventKind::Run;
    bool stolen = false;       ///< Run only: popped from another worker's deque
    std::uint32_t region = 0;  ///< region_names() index + 1; 0 = no open region
    double start_seconds = 0.0;
    double duration_seconds = 0.0;
  };

  /// Monotone per-slot totals, readable while the run is live (heartbeat).
  struct WorkerCounters {
    std::uint64_t tasks = 0;           ///< run slices (includes stolen)
    std::uint64_t steals = 0;          ///< run slices with stolen provenance
    std::uint64_t steal_attempts = 0;  ///< empty-handed victim-queue probes
    std::uint64_t parks = 0;           ///< cv parks + timed parallel_for waits
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
  };

  struct WorkerSnapshot {
    std::string label;  ///< "worker N" or "helper N"
    bool helper = false;
    WorkerCounters counters;
    std::vector<WorkerEvent> events;  ///< oldest-first, newest kept on wrap
  };

  /// One named parallel_for region window (a cache build, a matrix cell
  /// fan-out). Rings like everything else, keeping the newest kMaxRegions.
  static constexpr std::size_t kMaxRegions = 2048;
  struct RegionRecord {
    std::string name;
    double start_seconds = 0.0;
    double duration_seconds = -1.0;  ///< < 0: still open at snapshot time
  };

  struct Totals {
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t parks = 0;
    std::uint64_t events_dropped = 0;  ///< helper-slot exhaustion only
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
  };

  struct Options {
    std::size_t max_events_per_worker = 4096;
    std::size_t helper_slots = 4;  ///< non-worker threads that may record
  };

  // Two overloads (not one defaulted argument): the nested Options' default
  // member initializers are only parsed once the enclosing class is
  // complete, so `Options options = {}` would not compile here.
  explicit RuntimeProfiler(std::size_t num_workers);
  RuntimeProfiler(std::size_t num_workers, Options options);

  std::size_t num_workers() const noexcept { return num_workers_; }

  /// Monotonic seconds since construction — the trace timebase.
  double now_seconds() const noexcept;

  // --- hot-path hooks (ThreadPool + instrumented call sites) ---------------

  /// One executed pool task. `worker` is the pool worker index or kNoWorker.
  void on_task(std::size_t worker, double start_seconds, double end_seconds,
               bool stolen);

  /// One idle interval (a cv park or a parallel_for timed wait). Adjacent
  /// intervals on the same slot are coalesced so 200 µs wait ticks don't
  /// flush the ring.
  void on_idle(std::size_t worker, double start_seconds, double end_seconds);

  /// One empty-handed pass over the victim queues (counter only — failed
  /// probes are far too frequent to ring-record).
  void on_steal_attempt(std::size_t worker) noexcept;

  /// Open a named region; returns a token for region_end. Regions nest
  /// (the inner name stamps slices until its end restores the outer).
  std::uint32_t region_begin(std::string_view name);
  void region_end(std::uint32_t token);

  /// Interned region-name index + 1 currently open, 0 when none. ThreadPool
  /// uses this to label un-instrumented parallel_for calls.
  std::uint32_t current_region() const noexcept {
    return current_region_.load(std::memory_order_relaxed);
  }

  // --- read side (exporters, heartbeat; safe while the run is live) --------

  Totals totals() const;
  std::vector<WorkerSnapshot> snapshot_workers() const;
  std::vector<RegionRecord> snapshot_regions() const;  ///< oldest-first
  std::vector<std::string> region_names() const;       ///< interned, by index

  /// Upper bound on the profiler's own heap footprint (rings + regions).
  std::size_t memory_bound_bytes() const noexcept;

 private:
  struct Slot {
    mutable std::mutex mutex;        // guards ring fields below
    std::vector<WorkerEvent> ring;   // capacity-fixed at construction
    std::size_t head = 0;            // next write position
    std::uint64_t recorded = 0;      // events ever written
    // Monotone counters: one writer (the slot's thread), relaxed readers.
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> busy_nanos{0};
    std::atomic<std::uint64_t> idle_nanos{0};
    std::atomic<bool> used{false};   // helper slots: leased at least once
  };

  /// Map a caller to its slot: worker i -> slot i, non-workers lease helper
  /// slots via a thread-local cache. Returns nullptr when helper slots are
  /// exhausted (the event is dropped and counted).
  Slot* slot_for(std::size_t worker);

  void push_event(Slot& slot, const WorkerEvent& event);

  std::size_t num_workers_ = 0;
  Options options_;
  std::vector<std::unique_ptr<Slot>> slots_;  // workers, then helper slots
  std::atomic<std::size_t> next_helper_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t serial_ = 0;  ///< distinguishes profilers for the TLS lease

  // Region state: interned names + a ring of records + the open stack.
  mutable std::mutex region_mutex_;
  std::vector<std::string> region_names_;
  std::vector<RegionRecord> region_ring_;
  std::vector<std::uint32_t> region_tokens_;  // parallel to region_ring_
  std::size_t region_head_ = 0;
  std::uint64_t regions_recorded_ = 0;
  std::uint32_t region_serial_ = 0;
  struct OpenRegion {
    std::uint32_t token = 0;
    std::size_t ring_pos = 0;
    std::uint32_t outer = 0;  ///< current_region_ to restore on end
  };
  std::vector<OpenRegion> open_regions_;
  std::atomic<std::uint32_t> current_region_{0};

  std::chrono::steady_clock::time_point start_;
};

struct MetricsSnapshot;

/// Distill a RuntimeProfiler into a metrics snapshot: wall-clock work-
/// stealing counters (`runtime.tasks/_steals/_steal_attempts/_parks/
/// _events_dropped`), pool-shape gauges (`runtime.workers`,
/// `runtime.busy_seconds`, `runtime.idle_seconds`, `runtime.rss_bytes`,
/// `runtime.peak_rss_bytes`, `runtime.profiler_bound_bytes`), and one
/// wall-seconds duration histogram per named parallel_for region
/// (`runtime.region_<name>_seconds` over the recorded ring — newest windows
/// when the ring wrapped; still-open regions are skipped).
MetricsSnapshot runtime_metrics_snapshot(const RuntimeProfiler& profiler);

/// RAII region marker; a null profiler makes both ends a no-op.
class RuntimeRegion {
 public:
  RuntimeRegion(RuntimeProfiler* profiler, std::string_view name)
      : profiler_(profiler),
        token_(profiler != nullptr ? profiler->region_begin(name) : 0) {}
  ~RuntimeRegion() {
    if (profiler_ != nullptr) profiler_->region_end(token_);
  }
  RuntimeRegion(const RuntimeRegion&) = delete;
  RuntimeRegion& operator=(const RuntimeRegion&) = delete;

 private:
  RuntimeProfiler* profiler_;
  std::uint32_t token_;
};

/// One parsed/parseable heartbeat.json sample (also the round-trip test
/// vehicle). All fields mirror the JSON keys one to one.
struct HeartbeatSample {
  double uptime_seconds = 0.0;
  std::uint64_t beats = 0;
  std::string phase;
  std::int64_t clock = 0;
  std::int64_t clock_limit = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
  double progress = 0.0;     ///< [0, 1]; prefers clock/clock_limit when set
  double eta_seconds = -1.0; ///< < 0: unknown (no progress yet)
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  bool stalled = false;
  struct Worker {
    std::string label;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t parks = 0;
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
    double busy_fraction = 0.0;
  };
  std::vector<Worker> workers;
};

void write_heartbeat_json(std::ostream& os, const HeartbeatSample& sample);
/// Read a sample back. Throws PreconditionError unless `root` is an object
/// whose integer fields (counts, byte sizes, clocks) are integers in
/// [0, 2^53]; an absent field reads as 0.
HeartbeatSample parse_heartbeat(const JsonValue& root);

/// Live-run heartbeat: a background thread periodically rewrites a small
/// heartbeat.json (atomically: tmp + rename) with the current phase, clock
/// tick, tasks placed, per-worker busy fractions, RSS, and an ETA projected
/// from progress — so a multi-hour 262k/1M bench run is monitorable with
/// `watch cat heartbeat.json` instead of silent. A stall watchdog warns on
/// stderr (with the accumulated per-worker counters) when no progress is
/// observed for `stall_warn_seconds`.
///
/// The writers (drivers call set_clock / set_progress per tick, benches call
/// set_phase per section) only store relaxed atomics — attaching a heartbeat
/// never changes schedules. Drivers take it through the same nullable-handle
/// pattern as the other observability taps (SlrhParams::heartbeat).
class Heartbeat {
 public:
  struct Options {
    std::string path = "heartbeat.json";
    /// <= 0: no background thread — tests drive beat_now() by hand.
    double interval_seconds = 5.0;
    /// <= 0: watchdog off.
    double stall_warn_seconds = 120.0;
  };

  explicit Heartbeat(Options options, const RuntimeProfiler* profiler = nullptr);
  ~Heartbeat();  ///< stops the thread and writes one final sample

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void set_phase(std::string_view phase);
  void set_clock(std::int64_t clock, std::int64_t clock_limit) noexcept {
    clock_.store(clock, std::memory_order_relaxed);
    clock_limit_.store(clock_limit, std::memory_order_relaxed);
  }
  void set_progress(std::uint64_t done, std::uint64_t total) noexcept {
    tasks_done_.store(done, std::memory_order_relaxed);
    tasks_total_.store(total, std::memory_order_relaxed);
  }

  /// Sample and rewrite the file now (also runs the stall check).
  void beat_now();

  std::uint64_t beats() const noexcept {
    return beats_.load(std::memory_order_relaxed);
  }

  HeartbeatSample sample() const;

 private:
  void run();
  void stall_check(const HeartbeatSample& sample);

  Options options_;
  const RuntimeProfiler* profiler_;
  std::chrono::steady_clock::time_point start_;

  std::atomic<std::int64_t> clock_{0};
  std::atomic<std::int64_t> clock_limit_{0};
  std::atomic<std::uint64_t> tasks_done_{0};
  std::atomic<std::uint64_t> tasks_total_{0};
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<bool> stalled_{false};
  mutable std::mutex phase_mutex_;
  std::string phase_ = "start";

  // Watchdog state (beat-serialised: touched under beat_mutex_).
  std::mutex beat_mutex_;
  std::uint64_t last_key_done_ = 0;
  std::int64_t last_key_clock_ = 0;
  std::uint64_t last_key_tasks_ = 0;
  double last_change_seconds_ = 0.0;
  bool stall_warned_ = false;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace ahg::obs
