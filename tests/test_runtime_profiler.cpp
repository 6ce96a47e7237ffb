// RuntimeProfiler unit coverage: ring-wrap retention, idle coalescing,
// region nesting/stamping, helper-slot leasing, concurrent writers vs.
// snapshot readers (the TSan target), the ThreadPool integration, the
// Chrome trace pid-3 process, the runtime metrics snapshot, and
// the heartbeat file round-trip, hostile-input parsing + stall watchdog. The bit-identical-
// schedules side of the contract lives in tests/test_determinism.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/chrome_trace.hpp"
#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"
#include "support/runtime_profiler.hpp"
#include "support/thread_pool.hpp"
#include "tests/byte_mutation.hpp"

namespace ahg {
namespace {

using obs::RuntimeProfiler;

RuntimeProfiler::Options small_options(std::size_t ring, std::size_t helpers = 4) {
  RuntimeProfiler::Options options;
  options.max_events_per_worker = ring;
  options.helper_slots = helpers;
  return options;
}

TEST(RuntimeProfiler, RingWrapKeepsNewestEvents) {
  RuntimeProfiler profiler(1, small_options(8));
  for (int i = 0; i < 20; ++i) {
    const double start = static_cast<double>(i);
    profiler.on_task(0, start, start + 0.5, /*stolen=*/false);
  }
  const auto workers = profiler.snapshot_workers();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].label, "worker 0");
  EXPECT_FALSE(workers[0].helper);
  EXPECT_EQ(workers[0].counters.tasks, 20u);  // counters keep the full tally
  ASSERT_EQ(workers[0].events.size(), 8u);    // ring keeps the newest 8
  for (std::size_t k = 0; k < workers[0].events.size(); ++k) {
    EXPECT_EQ(workers[0].events[k].start_seconds,
              static_cast<double>(12 + k));  // oldest-first, 12..19
  }
}

TEST(RuntimeProfiler, AdjacentIdleIntervalsCoalesce) {
  RuntimeProfiler profiler(1, small_options(64));
  // Back-to-back 200 µs wait ticks (gap << 1 ms) must merge into one entry.
  profiler.on_idle(0, 0.0, 0.0002);
  profiler.on_idle(0, 0.0002, 0.0004);
  profiler.on_idle(0, 0.0004, 0.0006);
  // A distant idle (gap >= 1 ms) starts a fresh entry.
  profiler.on_idle(0, 1.0, 1.0002);
  const auto workers = profiler.snapshot_workers();
  ASSERT_EQ(workers.size(), 1u);
  ASSERT_EQ(workers[0].events.size(), 2u);
  EXPECT_EQ(workers[0].events[0].start_seconds, 0.0);
  EXPECT_NEAR(workers[0].events[0].duration_seconds, 0.0006, 1e-12);
  EXPECT_EQ(workers[0].events[1].start_seconds, 1.0);
  // The monotone counter still counts every park.
  EXPECT_EQ(workers[0].counters.parks, 4u);
}

TEST(RuntimeProfiler, RegionsNestAndStampEvents) {
  RuntimeProfiler profiler(1, small_options(64));
  EXPECT_EQ(profiler.current_region(), 0u);

  const std::uint32_t outer = profiler.region_begin("outer");
  profiler.on_task(0, 0.0, 0.1, false);
  const std::uint32_t inner = profiler.region_begin("inner");
  profiler.on_task(0, 0.2, 0.3, false);
  profiler.region_end(inner);
  profiler.on_task(0, 0.4, 0.5, false);  // back under "outer"
  profiler.region_end(outer);
  EXPECT_EQ(profiler.current_region(), 0u);
  profiler.on_task(0, 0.6, 0.7, false);  // no region open

  const auto names = profiler.region_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "outer");
  EXPECT_EQ(names[1], "inner");

  const auto events = profiler.snapshot_workers().at(0).events;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].region, 1u);  // names[0] = outer
  EXPECT_EQ(events[1].region, 2u);  // names[1] = inner
  EXPECT_EQ(events[2].region, 1u);
  EXPECT_EQ(events[3].region, 0u);

  const auto regions = profiler.snapshot_regions();
  ASSERT_EQ(regions.size(), 2u);
  for (const auto& region : regions) {
    EXPECT_GE(region.duration_seconds, 0.0) << region.name << " left open";
  }
}

TEST(RuntimeProfiler, HelperSlotLeaseAndExhaustion) {
  RuntimeProfiler profiler(1, small_options(16, /*helpers=*/1));
  // Two non-worker threads race for the single helper slot; exactly one
  // wins the lease, the other's events are dropped and counted.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      profiler.on_task(RuntimeProfiler::kNoWorker, 0.0, 0.1, false);
    });
  }
  for (auto& thread : threads) thread.join();

  const auto totals = profiler.totals();
  EXPECT_EQ(totals.tasks, 1u);
  EXPECT_EQ(totals.events_dropped, 1u);

  const auto workers = profiler.snapshot_workers();
  // Slot 0 (the worker) always appears; only the leased helper joins it.
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[1].label, "helper 0");
  EXPECT_TRUE(workers[1].helper);
  EXPECT_EQ(workers[1].counters.tasks, 1u);
}

TEST(RuntimeProfiler, ConcurrentWritersAndSnapshotReadersAreClean) {
  // The TSan target: worker threads hammer the hot hooks while a reader
  // thread snapshots rings, regions, and totals mid-flight. Values are
  // checked only loosely — the point is data-race freedom.
  constexpr std::size_t kWriters = 4;
  constexpr int kEventsPerWriter = 2000;
  RuntimeProfiler profiler(kWriters, small_options(128));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)profiler.totals();
      (void)profiler.snapshot_workers();
      (void)profiler.snapshot_regions();
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        const double start = static_cast<double>(i) * 1e-4;
        if (i % 7 == 0) {
          const std::uint32_t token = profiler.region_begin("burst");
          profiler.on_task(w, start, start + 1e-5, i % 3 == 0);
          profiler.region_end(token);
        } else if (i % 5 == 0) {
          profiler.on_idle(w, start, start + 1e-5);
        } else {
          profiler.on_steal_attempt(w);
          profiler.on_task(w, start, start + 1e-5, false);
        }
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto totals = profiler.totals();
  EXPECT_GT(totals.tasks, 0u);
  EXPECT_GT(totals.steal_attempts, 0u);
  EXPECT_GT(totals.parks, 0u);
  EXPECT_EQ(totals.events_dropped, 0u);
  EXPECT_EQ(profiler.snapshot_workers().size(), kWriters);
}

TEST(RuntimeProfiler, ThreadPoolParallelForIsProfiled) {
  ThreadPool pool(2);
  obs::RuntimeProfiler profiler(pool.size());
  pool.set_profiler(&profiler);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 256, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  pool.set_profiler(nullptr);

  EXPECT_EQ(sum.load(), 256u * 255u / 2u);
  const auto totals = profiler.totals();
  EXPECT_GT(totals.tasks, 0u);
  EXPECT_GT(totals.busy_seconds, 0.0);
  // An un-instrumented parallel_for gets the pool's generic region label.
  bool saw_generic = false;
  for (const auto& region : profiler.snapshot_regions()) {
    if (region.name == "parallel_for") saw_generic = true;
  }
  EXPECT_TRUE(saw_generic);
}

TEST(RuntimeProfiler, ChromeTraceHasWallClockWorkerProcess) {
  RuntimeProfiler profiler(2, small_options(32));
  const std::uint32_t token = profiler.region_begin("matrix_cells");
  profiler.on_task(0, 0.0, 0.1, false);
  profiler.on_task(1, 0.0, 0.2, true);
  profiler.on_idle(0, 0.1, 0.4);
  profiler.region_end(token);

  std::ostringstream os;
  obs::write_chrome_trace(os, nullptr, nullptr, &profiler, "test");
  const std::string trace = os.str();

  // Must be a valid JSON document with the pid-3 process + one row per
  // worker, the region row, and the per-slot counter instants.
  const obs::JsonValue root = obs::parse_json(trace);
  const obs::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_NE(trace.find("runtime (workers)"), std::string::npos);
  EXPECT_NE(trace.find("worker 0"), std::string::npos);
  EXPECT_NE(trace.find("worker 1"), std::string::npos);
  EXPECT_NE(trace.find("matrix_cells"), std::string::npos);
  EXPECT_NE(trace.find("worker_counters"), std::string::npos);
  bool saw_pid3 = false;
  for (const obs::JsonValue& event : events->as_array()) {
    if (event.get_int("pid", -1) == 3) saw_pid3 = true;
  }
  EXPECT_TRUE(saw_pid3);
}

TEST(RuntimeProfiler, MetricsSnapshotHasRuntimeSeries) {
  RuntimeProfiler profiler(2, small_options(32));
  const std::uint32_t token = profiler.region_begin("cache_build");
  profiler.on_task(0, 0.0, 0.1, false);
  profiler.region_end(token);
  profiler.on_steal_attempt(1);

  const auto snapshot = obs::runtime_metrics_snapshot(profiler);
  bool saw_tasks = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "runtime.tasks") {
      saw_tasks = true;
      EXPECT_EQ(counter.value, 1u);
    }
  }
  EXPECT_TRUE(saw_tasks);
  bool saw_workers = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "runtime.workers") {
      saw_workers = true;
      EXPECT_EQ(gauge.value, 2.0);
    }
  }
  EXPECT_TRUE(saw_workers);
  ASSERT_NE(snapshot.find_histogram("runtime.region_cache_build_seconds"),
            nullptr);
}

TEST(RuntimeProfiler, MemoryTelemetryReportsBounds) {
  RuntimeProfiler profiler(2, small_options(32));
  EXPECT_GT(profiler.memory_bound_bytes(), 0u);
#if defined(__linux__)
  EXPECT_GT(obs::process_rss_bytes(), 0u);
  EXPECT_GE(obs::process_peak_rss_bytes(), obs::process_rss_bytes());
#endif
  EXPECT_GT(obs::process_cpu_seconds(), 0.0);
}

TEST(Heartbeat, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ahg_heartbeat_test.json")
          .string();
  std::remove(path.c_str());

  RuntimeProfiler profiler(2, small_options(32));
  profiler.on_task(0, 0.0, 0.25, false);

  obs::Heartbeat::Options options;
  options.path = path;
  options.interval_seconds = 0.0;  // no thread; the test drives beats
  options.stall_warn_seconds = 0.0;
  obs::Heartbeat heartbeat(options, &profiler);
  heartbeat.set_phase("slrh1_run");
  heartbeat.set_clock(125, 1000);
  heartbeat.set_progress(40, 64);
  heartbeat.beat_now();
  EXPECT_EQ(heartbeat.beats(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto sample = obs::parse_heartbeat(obs::parse_json(buffer.str()));
  EXPECT_EQ(sample.beats, 1u);
  EXPECT_EQ(sample.phase, "slrh1_run");
  EXPECT_EQ(sample.clock, 125);
  EXPECT_EQ(sample.clock_limit, 1000);
  EXPECT_EQ(sample.tasks_done, 40u);
  EXPECT_EQ(sample.tasks_total, 64u);
  EXPECT_NEAR(sample.progress, 0.125, 1e-9);  // clock/clock_limit wins
  EXPECT_FALSE(sample.stalled);
  // Both pool workers appear (helpers only when leased); worker 0 carries
  // the recorded busy time.
  ASSERT_EQ(sample.workers.size(), 2u);
  EXPECT_EQ(sample.workers[0].label, "worker 0");
  EXPECT_EQ(sample.workers[0].tasks, 1u);
  EXPECT_NEAR(sample.workers[0].busy_seconds, 0.25, 1e-6);
  std::remove(path.c_str());
}

TEST(Heartbeat, ParseRejectsOutOfRangeIntegers) {
  // Values the writer never produces: each must be refused, not wrapped
  // (a negative count cast to uint64) or rounded (a fraction, 1e300).
  for (const char* text :
       {R"({"beats":-1})", R"({"tasks_done":2.5})", R"({"rss_bytes":1e300})",
        R"({"clock":-7})", R"({"clock_limit":"9"})",
        R"({"workers":[{"label":"w","tasks":-3}]})",
        R"({"workers":[{"label":"w","parks":1e20}]})"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(obs::parse_heartbeat(obs::parse_json(text)), PreconditionError);
  }
  const auto sample = obs::parse_heartbeat(obs::parse_json(R"({"beats":3})"));
  EXPECT_EQ(sample.beats, 3u);
  EXPECT_EQ(sample.tasks_total, 0u);  // absent: the default
}

TEST(Heartbeat, JsonSurvivesByteMutation) {
  // A heartbeat sample with random byte edits (overwrite, insert, delete):
  // each mutant either parses into a sample whose integers are in range, or
  // throws PreconditionError. A negative count must not wrap to 2^64 - n.
  obs::HeartbeatSample sample;
  sample.uptime_seconds = 12.5;
  sample.beats = 42;
  sample.phase = "slrh3_run";
  sample.clock = 125000;
  sample.clock_limit = 1000000;
  sample.tasks_done = 400;
  sample.tasks_total = 1024;
  sample.progress = 0.125;
  sample.eta_seconds = 87.5;
  sample.rss_bytes = 123456789;
  sample.peak_rss_bytes = 234567890;
  for (int w = 0; w < 2; ++w) {
    obs::HeartbeatSample::Worker worker;
    worker.label = "worker " + std::to_string(w);
    worker.tasks = 17u + static_cast<std::uint64_t>(w);
    worker.steals = 3;
    worker.steal_attempts = 9;
    worker.parks = 2;
    worker.busy_seconds = 1.5;
    worker.idle_seconds = 0.25;
    worker.busy_fraction = 0.85;
    sample.workers.push_back(worker);
  }
  std::ostringstream os;
  obs::write_heartbeat_json(os, sample);
  constexpr std::uint64_t kMaxExact = std::uint64_t{1} << 53;
  const auto tally = test::run_byte_mutations(os.str(), 2000, 0x4EA47ull,
                                              [&](std::istream& in) {
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    const auto parsed = obs::parse_heartbeat(obs::parse_json(text));
    EXPECT_LE(parsed.beats, kMaxExact);
    EXPECT_GE(parsed.clock, 0);
    EXPECT_GE(parsed.clock_limit, 0);
    EXPECT_LE(parsed.tasks_done, kMaxExact);
    EXPECT_LE(parsed.tasks_total, kMaxExact);
    EXPECT_LE(parsed.rss_bytes, kMaxExact);
    EXPECT_LE(parsed.peak_rss_bytes, kMaxExact);
    for (const auto& worker : parsed.workers) {
      EXPECT_LE(worker.tasks, kMaxExact);
      EXPECT_LE(worker.steals, kMaxExact);
      EXPECT_LE(worker.steal_attempts, kMaxExact);
      EXPECT_LE(worker.parks, kMaxExact);
    }
  });
  // Both outcomes occur: the mutations reach numbers and structure alike.
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(Heartbeat, StallWatchdogFlagsAndClears) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ahg_heartbeat_stall.json")
          .string();
  obs::Heartbeat::Options options;
  options.path = path;
  options.interval_seconds = 0.0;
  options.stall_warn_seconds = 0.02;
  obs::Heartbeat heartbeat(options, nullptr);
  heartbeat.set_progress(5, 10);
  heartbeat.beat_now();  // progress change arms the watchdog
  EXPECT_FALSE(heartbeat.sample().stalled);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  heartbeat.beat_now();  // no change since the last beat -> stalled
  EXPECT_TRUE(heartbeat.sample().stalled);

  heartbeat.set_progress(6, 10);
  heartbeat.beat_now();  // progress clears the flag
  EXPECT_FALSE(heartbeat.sample().stalled);
  std::remove(path.c_str());
}

TEST(Heartbeat, BackgroundThreadBeats) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ahg_heartbeat_bg.json")
          .string();
  std::remove(path.c_str());
  {
    obs::Heartbeat::Options options;
    options.path = path;
    options.interval_seconds = 0.005;
    obs::Heartbeat heartbeat(options, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }  // dtor joins the thread and writes the final sample
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto sample = obs::parse_heartbeat(obs::parse_json(buffer.str()));
  EXPECT_GE(sample.beats, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ahg
