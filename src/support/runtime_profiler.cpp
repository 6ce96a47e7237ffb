#include "support/runtime_profiler.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/time.h>
#endif

namespace ahg::obs {

namespace {

/// /proc/self/status "VmRSS:	  1234 kB" → bytes; 0 on any failure.
std::uint64_t proc_status_kb(std::string_view key) noexcept {
#if defined(__linux__)
  try {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind(key, 0) != 0) continue;
      std::uint64_t kb = 0;
      std::size_t i = key.size();
      while (i < line.size() && (line[i] == ':' || line[i] == ' ' || line[i] == '\t')) ++i;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        kb = kb * 10 + static_cast<std::uint64_t>(line[i] - '0');
        ++i;
      }
      return kb * 1024;
    }
  } catch (...) {
  }
#else
  static_cast<void>(key);
#endif
  return 0;
}

std::uint64_t nanos(double seconds) noexcept {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

/// Coalesce threshold for adjacent idle intervals: a parallel_for waiter
/// wakes every 200 µs, so anything under 1 ms of separation is the same
/// logical idle stretch.
constexpr double kIdleCoalesceSeconds = 1e-3;

std::atomic<std::uint64_t> profiler_serial{0};

/// Helper-slot lease of the current thread (one profiler at a time; a new
/// profiler's serial invalidates stale leases).
struct HelperLease {
  std::uint64_t serial = 0;
  std::size_t slot = 0;  ///< absolute index into slots_, or npos
};
thread_local HelperLease tls_lease;

}  // namespace

std::uint64_t process_rss_bytes() noexcept { return proc_status_kb("VmRSS"); }

std::uint64_t process_peak_rss_bytes() noexcept { return proc_status_kb("VmHWM"); }

double process_cpu_seconds() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
#else
  return 0.0;
#endif
}

RuntimeProfiler::RuntimeProfiler(std::size_t num_workers)
    : RuntimeProfiler(num_workers, Options{}) {}

RuntimeProfiler::RuntimeProfiler(std::size_t num_workers, Options options)
    : num_workers_(num_workers),
      options_(options),
      serial_(profiler_serial.fetch_add(1, std::memory_order_relaxed) + 1),
      start_(std::chrono::steady_clock::now()) {
  AHG_EXPECTS_MSG(options_.max_events_per_worker > 0,
                  "profiler ring capacity must be positive");
  const std::size_t slots = num_workers_ + options_.helper_slots;
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->ring.reserve(options_.max_events_per_worker);
    slots_.push_back(std::move(slot));
  }
  region_names_.reserve(16);
  region_ring_.reserve(options_.max_regions);
  region_tokens_.reserve(options_.max_regions);
}

double RuntimeProfiler::now_seconds() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

RuntimeProfiler::Slot* RuntimeProfiler::slot_for(std::size_t worker) {
  if (worker < num_workers_) return slots_[worker].get();
  if (tls_lease.serial != serial_) {
    const std::size_t next = next_helper_.fetch_add(1, std::memory_order_relaxed);
    tls_lease.serial = serial_;
    tls_lease.slot = next < options_.helper_slots
                         ? num_workers_ + next
                         : static_cast<std::size_t>(-1);
  }
  if (tls_lease.slot == static_cast<std::size_t>(-1)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Slot* slot = slots_[tls_lease.slot].get();
  slot->used.store(true, std::memory_order_relaxed);
  return slot;
}

void RuntimeProfiler::push_event(Slot& slot, const WorkerEvent& event) {
  std::lock_guard lock(slot.mutex);
  // Coalesce back-to-back idles so a long imbalanced wait is one ring entry
  // instead of thousands of 200 µs wait ticks evicting the run slices.
  if (event.kind == EventKind::Idle && slot.recorded > 0) {
    const std::size_t last =
        (slot.head + slot.ring.size() - 1) % std::max<std::size_t>(1, slot.ring.size());
    if (!slot.ring.empty() && slot.ring[last].kind == EventKind::Idle) {
      WorkerEvent& prev = slot.ring[last];
      const double prev_end = prev.start_seconds + prev.duration_seconds;
      if (event.start_seconds - prev_end < kIdleCoalesceSeconds &&
          event.start_seconds >= prev.start_seconds) {
        prev.duration_seconds =
            event.start_seconds + event.duration_seconds - prev.start_seconds;
        return;
      }
    }
  }
  if (slot.ring.size() < options_.max_events_per_worker) {
    slot.ring.push_back(event);
  } else {
    slot.ring[slot.head] = event;
    slot.head = (slot.head + 1) % slot.ring.size();
  }
  ++slot.recorded;
}

void RuntimeProfiler::on_task(std::size_t worker, double start_seconds,
                              double end_seconds, bool stolen) {
  Slot* slot = slot_for(worker);
  if (slot == nullptr) return;
  slot->tasks.fetch_add(1, std::memory_order_relaxed);
  if (stolen) slot->steals.fetch_add(1, std::memory_order_relaxed);
  slot->busy_nanos.fetch_add(nanos(end_seconds - start_seconds),
                             std::memory_order_relaxed);
  WorkerEvent event;
  event.kind = EventKind::Run;
  event.stolen = stolen;
  event.region = current_region_.load(std::memory_order_relaxed);
  event.start_seconds = start_seconds;
  event.duration_seconds = end_seconds - start_seconds;
  push_event(*slot, event);
}

void RuntimeProfiler::on_idle(std::size_t worker, double start_seconds,
                              double end_seconds) {
  Slot* slot = slot_for(worker);
  if (slot == nullptr) return;
  slot->parks.fetch_add(1, std::memory_order_relaxed);
  slot->idle_nanos.fetch_add(nanos(end_seconds - start_seconds),
                             std::memory_order_relaxed);
  WorkerEvent event;
  event.kind = EventKind::Idle;
  event.region = current_region_.load(std::memory_order_relaxed);
  event.start_seconds = start_seconds;
  event.duration_seconds = end_seconds - start_seconds;
  push_event(*slot, event);
}

void RuntimeProfiler::on_steal_attempt(std::size_t worker) noexcept {
  Slot* slot = slot_for(worker);
  if (slot == nullptr) return;
  slot->steal_attempts.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t RuntimeProfiler::region_begin(std::string_view name) {
  std::lock_guard lock(region_mutex_);
  std::uint32_t name_idx = 0;
  for (std::size_t i = 0; i < region_names_.size(); ++i) {
    if (region_names_[i] == name) {
      name_idx = static_cast<std::uint32_t>(i + 1);
      break;
    }
  }
  if (name_idx == 0) {
    region_names_.emplace_back(name);
    name_idx = static_cast<std::uint32_t>(region_names_.size());
  }

  const std::uint32_t token = ++region_serial_;
  RegionRecord record;
  record.name.assign(name);
  record.start_seconds = now_seconds();
  record.duration_seconds = -1.0;

  std::size_t pos = 0;
  if (region_ring_.size() < options_.max_regions) {
    pos = region_ring_.size();
    region_ring_.push_back(std::move(record));
    region_tokens_.push_back(token);
  } else {
    pos = region_head_;
    region_ring_[pos] = std::move(record);
    region_tokens_[pos] = token;
    region_head_ = (region_head_ + 1) % region_ring_.size();
  }
  ++regions_recorded_;

  OpenRegion open;
  open.token = token;
  open.ring_pos = pos;
  open.outer = current_region_.load(std::memory_order_relaxed);
  open_regions_.push_back(open);
  current_region_.store(name_idx, std::memory_order_relaxed);
  return token;
}

void RuntimeProfiler::region_end(std::uint32_t token) {
  std::lock_guard lock(region_mutex_);
  // Unwind to the matching open region (tolerates a mismatched/missed end —
  // the inner records are simply closed with it).
  while (!open_regions_.empty()) {
    const OpenRegion open = open_regions_.back();
    open_regions_.pop_back();
    current_region_.store(open.outer, std::memory_order_relaxed);
    if (open.ring_pos < region_ring_.size() &&
        region_tokens_[open.ring_pos] == open.token) {
      region_ring_[open.ring_pos].duration_seconds =
          now_seconds() - region_ring_[open.ring_pos].start_seconds;
    }
    if (open.token == token) break;
  }
}

RuntimeProfiler::Totals RuntimeProfiler::totals() const {
  Totals totals;
  for (const auto& slot : slots_) {
    totals.tasks += slot->tasks.load(std::memory_order_relaxed);
    totals.steals += slot->steals.load(std::memory_order_relaxed);
    totals.steal_attempts += slot->steal_attempts.load(std::memory_order_relaxed);
    totals.parks += slot->parks.load(std::memory_order_relaxed);
    totals.busy_seconds +=
        static_cast<double>(slot->busy_nanos.load(std::memory_order_relaxed)) * 1e-9;
    totals.idle_seconds +=
        static_cast<double>(slot->idle_nanos.load(std::memory_order_relaxed)) * 1e-9;
  }
  totals.events_dropped = dropped_.load(std::memory_order_relaxed);
  return totals;
}

std::vector<RuntimeProfiler::WorkerSnapshot> RuntimeProfiler::snapshot_workers()
    const {
  std::vector<WorkerSnapshot> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = *slots_[i];
    const bool helper = i >= num_workers_;
    // Worker slots always appear (one trace row per worker, busy or not);
    // helper slots only when a thread actually leased them.
    if (helper && !slot.used.load(std::memory_order_relaxed)) continue;
    WorkerSnapshot snapshot;
    snapshot.helper = helper;
    snapshot.label = helper ? "helper " + std::to_string(i - num_workers_)
                            : "worker " + std::to_string(i);
    snapshot.counters.tasks = slot.tasks.load(std::memory_order_relaxed);
    snapshot.counters.steals = slot.steals.load(std::memory_order_relaxed);
    snapshot.counters.steal_attempts =
        slot.steal_attempts.load(std::memory_order_relaxed);
    snapshot.counters.parks = slot.parks.load(std::memory_order_relaxed);
    snapshot.counters.busy_seconds =
        static_cast<double>(slot.busy_nanos.load(std::memory_order_relaxed)) * 1e-9;
    snapshot.counters.idle_seconds =
        static_cast<double>(slot.idle_nanos.load(std::memory_order_relaxed)) * 1e-9;
    {
      std::lock_guard lock(slot.mutex);
      snapshot.events.reserve(slot.ring.size());
      for (std::size_t k = 0; k < slot.ring.size(); ++k) {
        snapshot.events.push_back(slot.ring[(slot.head + k) % slot.ring.size()]);
      }
    }
    out.push_back(std::move(snapshot));
  }
  return out;
}

std::vector<RuntimeProfiler::RegionRecord> RuntimeProfiler::snapshot_regions()
    const {
  std::lock_guard lock(region_mutex_);
  std::vector<RegionRecord> out;
  out.reserve(region_ring_.size());
  for (std::size_t k = 0; k < region_ring_.size(); ++k) {
    out.push_back(region_ring_[(region_head_ + k) % region_ring_.size()]);
  }
  return out;
}

std::vector<std::string> RuntimeProfiler::region_names() const {
  std::lock_guard lock(region_mutex_);
  return region_names_;
}

std::size_t RuntimeProfiler::memory_bound_bytes() const noexcept {
  return slots_.size() *
             (sizeof(Slot) + options_.max_events_per_worker * sizeof(WorkerEvent)) +
         options_.max_regions * (sizeof(RegionRecord) + sizeof(std::uint32_t));
}

MetricsSnapshot runtime_metrics_snapshot(const RuntimeProfiler& profiler) {
  // Wall-seconds buckets: parallel_for windows span ~10 µs chunk fan-outs to
  // multi-second 262k-task cache builds.
  static constexpr std::array<double, 10> kBounds = {
      1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0};

  MetricsRegistry registry;
  const RuntimeProfiler::Totals totals = profiler.totals();
  registry.counter("runtime.tasks").add(totals.tasks);
  registry.counter("runtime.steals").add(totals.steals);
  registry.counter("runtime.steal_attempts").add(totals.steal_attempts);
  registry.counter("runtime.parks").add(totals.parks);
  registry.counter("runtime.events_dropped").add(totals.events_dropped);
  registry.gauge("runtime.workers")
      .set(static_cast<double>(profiler.num_workers()));
  registry.gauge("runtime.busy_seconds").set(totals.busy_seconds);
  registry.gauge("runtime.idle_seconds").set(totals.idle_seconds);
  registry.gauge("runtime.rss_bytes")
      .set(static_cast<double>(process_rss_bytes()));
  registry.gauge("runtime.peak_rss_bytes")
      .set(static_cast<double>(process_peak_rss_bytes()));
  registry.gauge("runtime.profiler_bound_bytes")
      .set(static_cast<double>(profiler.memory_bound_bytes()));

  for (const RuntimeProfiler::RegionRecord& region : profiler.snapshot_regions()) {
    if (region.duration_seconds < 0.0) continue;  // still open: no duration yet
    registry.histogram("runtime.region_" + region.name + "_seconds", kBounds)
        .observe(region.duration_seconds);
  }
  return registry.snapshot();
}

// --- heartbeat -------------------------------------------------------------

void write_heartbeat_json(std::ostream& os, const HeartbeatSample& sample) {
  JsonWriter json;
  json.begin_object();
  json.field("uptime_seconds", sample.uptime_seconds);
  json.field("beats", sample.beats);
  json.field("phase", sample.phase);
  json.field("clock", sample.clock);
  json.field("clock_limit", sample.clock_limit);
  json.field("tasks_done", sample.tasks_done);
  json.field("tasks_total", sample.tasks_total);
  json.field("progress", sample.progress);
  json.field("eta_seconds", sample.eta_seconds);
  json.field("rss_bytes", sample.rss_bytes);
  json.field("peak_rss_bytes", sample.peak_rss_bytes);
  json.field("stalled", sample.stalled);
  json.key("workers").begin_array();
  for (const auto& worker : sample.workers) {
    json.begin_object();
    json.field("label", worker.label);
    json.field("tasks", worker.tasks);
    json.field("steals", worker.steals);
    json.field("steal_attempts", worker.steal_attempts);
    json.field("parks", worker.parks);
    json.field("busy_seconds", worker.busy_seconds);
    json.field("idle_seconds", worker.idle_seconds);
    json.field("busy_fraction", worker.busy_fraction);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << json.str() << "\n";
}

namespace {

/// A count, byte size or clock read back from a heartbeat: at most 2^53, the
/// last integer a JSON number holds exactly. Absent: 0, the sample default.
constexpr std::int64_t kMaxHeartbeatInt = std::int64_t{1} << 53;

std::int64_t heartbeat_int(const JsonValue& object, std::string_view field) {
  return checked_int(object.find(field), field, 0, kMaxHeartbeatInt);
}

std::uint64_t heartbeat_count(const JsonValue& object, std::string_view field) {
  return static_cast<std::uint64_t>(heartbeat_int(object, field));
}

}  // namespace

HeartbeatSample parse_heartbeat(const JsonValue& root) {
  AHG_EXPECTS_MSG(root.is_object(), "heartbeat sample must be a JSON object");
  HeartbeatSample sample;
  sample.uptime_seconds = root.get_double("uptime_seconds");
  sample.beats = heartbeat_count(root, "beats");
  sample.phase = root.get_string("phase");
  sample.clock = heartbeat_int(root, "clock");
  sample.clock_limit = heartbeat_int(root, "clock_limit");
  sample.tasks_done = heartbeat_count(root, "tasks_done");
  sample.tasks_total = heartbeat_count(root, "tasks_total");
  sample.progress = root.get_double("progress");
  sample.eta_seconds = root.get_double("eta_seconds", -1.0);
  sample.rss_bytes = heartbeat_count(root, "rss_bytes");
  sample.peak_rss_bytes = heartbeat_count(root, "peak_rss_bytes");
  sample.stalled = root.get_bool("stalled");
  if (const JsonValue* workers = root.find("workers");
      workers != nullptr && workers->is_array()) {
    for (const JsonValue& entry : workers->as_array()) {
      HeartbeatSample::Worker worker;
      worker.label = entry.get_string("label");
      worker.tasks = heartbeat_count(entry, "tasks");
      worker.steals = heartbeat_count(entry, "steals");
      worker.steal_attempts = heartbeat_count(entry, "steal_attempts");
      worker.parks = heartbeat_count(entry, "parks");
      worker.busy_seconds = entry.get_double("busy_seconds");
      worker.idle_seconds = entry.get_double("idle_seconds");
      worker.busy_fraction = entry.get_double("busy_fraction");
      sample.workers.push_back(std::move(worker));
    }
  }
  return sample;
}

Heartbeat::Heartbeat(Options options, const RuntimeProfiler* profiler)
    : options_(std::move(options)),
      profiler_(profiler),
      start_(std::chrono::steady_clock::now()) {
  AHG_EXPECTS_MSG(!options_.path.empty(), "heartbeat needs an output path");
  if (options_.interval_seconds > 0.0) {
    thread_ = std::thread([this] { run(); });
  }
}

Heartbeat::~Heartbeat() {
  if (thread_.joinable()) {
    {
      std::lock_guard lock(stop_mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
  }
  beat_now();  // final sample so the file reflects the finished run
}

void Heartbeat::set_phase(std::string_view phase) {
  std::lock_guard lock(phase_mutex_);
  phase_.assign(phase);
}

HeartbeatSample Heartbeat::sample() const {
  HeartbeatSample sample;
  sample.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  sample.beats = beats_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(phase_mutex_);
    sample.phase = phase_;
  }
  sample.clock = clock_.load(std::memory_order_relaxed);
  sample.clock_limit = clock_limit_.load(std::memory_order_relaxed);
  sample.tasks_done = tasks_done_.load(std::memory_order_relaxed);
  sample.tasks_total = tasks_total_.load(std::memory_order_relaxed);
  if (sample.clock_limit > 0) {
    sample.progress = std::min(
        1.0, static_cast<double>(sample.clock) / static_cast<double>(sample.clock_limit));
  } else if (sample.tasks_total > 0) {
    sample.progress =
        std::min(1.0, static_cast<double>(sample.tasks_done) /
                          static_cast<double>(sample.tasks_total));
  }
  sample.eta_seconds =
      sample.progress > 1e-9
          ? sample.uptime_seconds * (1.0 - sample.progress) / sample.progress
          : -1.0;
  sample.rss_bytes = process_rss_bytes();
  sample.peak_rss_bytes = process_peak_rss_bytes();
  sample.stalled = stalled_.load(std::memory_order_relaxed);
  if (profiler_ != nullptr) {
    for (const auto& worker : profiler_->snapshot_workers()) {
      HeartbeatSample::Worker out;
      out.label = worker.label;
      out.tasks = worker.counters.tasks;
      out.steals = worker.counters.steals;
      out.steal_attempts = worker.counters.steal_attempts;
      out.parks = worker.counters.parks;
      out.busy_seconds = worker.counters.busy_seconds;
      out.idle_seconds = worker.counters.idle_seconds;
      out.busy_fraction = sample.uptime_seconds > 0.0
                              ? worker.counters.busy_seconds / sample.uptime_seconds
                              : 0.0;
      sample.workers.push_back(std::move(out));
    }
  }
  return sample;
}

void Heartbeat::stall_check(const HeartbeatSample& sample) {
  const std::uint64_t profiler_tasks =
      profiler_ != nullptr ? profiler_->totals().tasks : 0;
  if (sample.tasks_done != last_key_done_ || sample.clock != last_key_clock_ ||
      profiler_tasks != last_key_tasks_) {
    last_key_done_ = sample.tasks_done;
    last_key_clock_ = sample.clock;
    last_key_tasks_ = profiler_tasks;
    last_change_seconds_ = sample.uptime_seconds;
    stall_warned_ = false;
    stalled_.store(false, std::memory_order_relaxed);
    return;
  }
  if (options_.stall_warn_seconds <= 0.0) return;
  if (sample.uptime_seconds - last_change_seconds_ < options_.stall_warn_seconds) {
    return;
  }
  stalled_.store(true, std::memory_order_relaxed);
  if (stall_warned_) return;
  stall_warned_ = true;
  std::ostringstream msg;
  msg << "heartbeat: no progress for "
      << (sample.uptime_seconds - last_change_seconds_) << " s (phase \""
      << sample.phase << "\", clock " << sample.clock << ", " << sample.tasks_done
      << " task(s) done)";
  for (const auto& worker : sample.workers) {
    msg << "\n  " << worker.label << ": tasks " << worker.tasks << ", steals "
        << worker.steals << "/" << worker.steal_attempts << " attempt(s), parks "
        << worker.parks << ", busy " << worker.busy_seconds << " s, idle "
        << worker.idle_seconds << " s";
  }
  std::cerr << msg.str() << "\n";
}

void Heartbeat::beat_now() {
  std::lock_guard beat_lock(beat_mutex_);
  HeartbeatSample snapshot = sample();
  stall_check(snapshot);
  snapshot.stalled = stalled_.load(std::memory_order_relaxed);
  beats_.fetch_add(1, std::memory_order_relaxed);
  ++snapshot.beats;
  const std::string tmp = options_.path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return;  // an unwritable heartbeat never fails the run
    write_heartbeat_json(os, snapshot);
  }
  std::rename(tmp.c_str(), options_.path.c_str());
}

void Heartbeat::run() {
  const auto interval = std::chrono::duration<double>(options_.interval_seconds);
  std::unique_lock lock(stop_mutex_);
  while (!stop_) {
    lock.unlock();
    beat_now();
    lock.lock();
    stop_cv_.wait_for(lock, interval, [this] { return stop_; });
  }
}

}  // namespace ahg::obs
