#pragma once
// Shared plumbing for the table/figure reproduction benches: scale
// resolution (REPRO_SCALE env), suite construction, common command-line
// flags (--version, --jobs, --cache...), header printing, and the
// BenchReport timing helper every bench routes its wall-clock measurements
// through.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "support/chrome_trace.hpp"
#include "support/contract.hpp"
#include "support/env.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/runtime_profiler.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::bench {

/// Flags every bench binary accepts (on top of bench-specific env knobs).
/// Resolved once by handle_bench_flags(); run_matrix and BenchReport read
/// the singleton.
struct BenchFlags {
  std::size_t jobs = 0;  ///< --jobs override; 0 = AHG_JOBS env, then hardware
  /// Cell-cache tri-state: unset = AHG_BENCH_CACHE env (default on),
  /// --cache forces on, --no-cache forces off.
  std::optional<bool> cache;
  std::string cache_dir;  ///< --cache-dir; empty = AHG_BENCH_CACHE_DIR, then .bench_cache
  std::string worker_trace;  ///< --worker-trace: wall-clock Chrome trace output
  std::string heartbeat;     ///< --heartbeat: live heartbeat.json path
};

inline BenchFlags& bench_flags() {
  static BenchFlags flags;
  return flags;
}

inline bool cache_enabled_by_flags() {
  const BenchFlags& flags = bench_flags();
  if (flags.cache.has_value()) return *flags.cache;
  return env_int("AHG_BENCH_CACHE", 1) != 0;
}

inline std::string cache_dir_by_flags() {
  const BenchFlags& flags = bench_flags();
  if (!flags.cache_dir.empty()) return flags.cache_dir;
  if (const char* dir = std::getenv("AHG_BENCH_CACHE_DIR"); dir != nullptr && *dir) {
    return dir;
  }
  return ".bench_cache";
}

/// Parse the common bench flags, consuming them from argv (so leftovers can
/// be handed to Google Benchmark by the micro benches). Applies --jobs /
/// AHG_JOBS to the global pool immediately. Returns an exit code when the
/// process should stop (--version, --help, or — unless `lenient` — an
/// unrecognized argument), nullopt to continue.
inline std::optional<int> handle_bench_flags(int& argc, char** argv,
                                             bool lenient = false) {
  BenchFlags& flags = bench_flags();
  int out = 1;  // argv[0] stays
  std::optional<int> exit_code;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << build_description() << "\n";
      return 0;
    }
    if (arg == "--help" && !lenient) {
      std::cout << "usage: " << argv[0]
                << " [--version] [--jobs N] [--cache|--no-cache] [--cache-dir D]\n"
                   "       [--worker-trace FILE] [--heartbeat FILE]\n"
                   "env: REPRO_SCALE=smoke|default|paper|large, REPRO_SEED, AHG_JOBS,\n"
                   "     AHG_BENCH_CACHE=0|1, AHG_BENCH_CACHE_DIR\n";
      return 0;
    }
    if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      std::string text;
      if (arg == "--jobs") {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": --jobs needs a value\n";
          return 2;
        }
        text = argv[++i];
      } else {
        text = arg.substr(7);
      }
      // Whole-string decimal only: "abc" or "3x" must not run at some other
      // width than the one asked for.
      std::size_t jobs = 0;
      const char* const last = text.data() + text.size();
      const auto [end, ec] = std::from_chars(text.data(), last, jobs);
      if (ec != std::errc{} || end != last || jobs > kMaxPoolThreads) {
        std::cerr << argv[0] << ": --jobs expects an integer in [0, "
                  << kMaxPoolThreads << "], got '" << text << "'\n";
        return 2;
      }
      flags.jobs = jobs;
      continue;
    }
    if (arg == "--cache") {
      flags.cache = true;
      continue;
    }
    if (arg == "--no-cache") {
      flags.cache = false;
      continue;
    }
    if (arg == "--cache-dir" || arg.rfind("--cache-dir=", 0) == 0) {
      if (arg == "--cache-dir") {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": --cache-dir needs a value\n";
          return 2;
        }
        flags.cache_dir = argv[++i];
      } else {
        flags.cache_dir = arg.substr(12);
      }
      continue;
    }
    if (arg == "--worker-trace" || arg.rfind("--worker-trace=", 0) == 0) {
      if (arg == "--worker-trace") {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": --worker-trace needs a value\n";
          return 2;
        }
        flags.worker_trace = argv[++i];
      } else {
        flags.worker_trace = arg.substr(15);
      }
      continue;
    }
    if (arg == "--heartbeat" || arg.rfind("--heartbeat=", 0) == 0) {
      if (arg == "--heartbeat") {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": --heartbeat needs a value\n";
          return 2;
        }
        flags.heartbeat = argv[++i];
      } else {
        flags.heartbeat = arg.substr(12);
      }
      continue;
    }
    if (!lenient) {
      std::cerr << argv[0] << ": unknown argument '" << arg
                << "' (try --help)\n";
      return 2;
    }
    argv[out++] = argv[i];  // keep for the downstream parser
  }
  if (lenient) argc = out;
  if (flags.jobs == 0) {
    try {
      flags.jobs = static_cast<std::size_t>(env_int_checked(
          "AHG_JOBS", 0, 0, static_cast<std::int64_t>(kMaxPoolThreads)));
    } catch (const PreconditionError& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      return 2;
    }
  }
  if (flags.jobs != 0) configure_global_pool(flags.jobs);
  return exit_code;
}

/// RAII wall-clock observability for one bench process: when the common
/// --worker-trace / --heartbeat flags are set, attaches a RuntimeProfiler to
/// the global pool (and a Heartbeat wired to it) for the life of the bench;
/// destruction detaches at the bench's quiescent end and writes the pid-3
/// worker Chrome trace. With neither flag set this is a complete no-op (the
/// pool keeps its null handle; schedules are bit-identical).
class RuntimeSession {
 public:
  RuntimeSession() {
    const BenchFlags& flags = bench_flags();
    if (!flags.worker_trace.empty() || !flags.heartbeat.empty()) {
      profiler_ = std::make_unique<obs::RuntimeProfiler>(global_pool().size());
      global_pool().set_profiler(profiler_.get());
    }
    if (!flags.heartbeat.empty()) {
      obs::Heartbeat::Options options;
      options.path = flags.heartbeat;
      options.interval_seconds = 1.0;
      heartbeat_ = std::make_unique<obs::Heartbeat>(options, profiler_.get());
    }
  }
  ~RuntimeSession() {
    heartbeat_.reset();  // stop the sampler before the profiler goes away
    if (profiler_ != nullptr) {
      global_pool().set_profiler(nullptr);
      if (const std::string& path = bench_flags().worker_trace; !path.empty()) {
        std::ofstream os(path);
        if (os) {
          obs::write_chrome_trace(os, nullptr, nullptr, profiler_.get(),
                                  "bench");
          std::cout << "worker trace -> " << path << "\n";
        } else {
          std::cerr << "bench: cannot open worker trace file " << path << "\n";
        }
      }
    }
  }
  RuntimeSession(const RuntimeSession&) = delete;
  RuntimeSession& operator=(const RuntimeSession&) = delete;

  obs::RuntimeProfiler* profiler() const noexcept { return profiler_.get(); }
  obs::Heartbeat* heartbeat() const noexcept { return heartbeat_.get(); }

  /// Forwarded to the heartbeat when one is attached (no-op otherwise).
  void set_phase(std::string_view phase) {
    if (heartbeat_ != nullptr) heartbeat_->set_phase(phase);
  }

 private:
  std::unique_ptr<obs::RuntimeProfiler> profiler_;
  std::unique_ptr<obs::Heartbeat> heartbeat_;
};

/// The large-scale recipe (bench_scale, and Max-Max's gated run in
/// bench_micro_kernels): the suite's recipe generalised to any machine count —
/// a half-fast/half-slow grid, the Gamma-CVB ETC, a layered DAG of ~32 levels
/// whose width scales with |T|, and tau and batteries scaled by the
/// per-machine pressure relative to the paper's 1024 tasks on 4 machines.
inline workload::Scenario make_scale_scenario(std::size_t num_tasks,
                                              std::size_t num_machines,
                                              std::uint64_t seed) {
  // Per-machine pressure relative to the paper's 1024 tasks on 4 machines.
  const double pressure = (static_cast<double>(num_tasks) /
                           static_cast<double>(num_machines)) /
                          256.0;
  auto grid = sim::GridConfig::make(num_machines / 2,
                                    num_machines - num_machines / 2)
                  .with_battery_scale(pressure);

  workload::DagGeneratorParams dag_params;
  dag_params.num_nodes = num_tasks;
  // Keep DAG depth roughly constant (~32 levels) as |T| grows, so ready
  // frontiers — and therefore pool sizes — scale with |T|.
  dag_params.mean_level_width = std::max<std::size_t>(32, num_tasks / 32);
  auto dag = workload::generate_dag(dag_params, seed);
  auto data = workload::generate_data_sizes({}, dag, seed + 1);
  auto etc = workload::generate_etc({}, num_tasks,
                                    workload::machine_classes(grid), seed + 2);

  workload::Scenario scenario{std::move(grid),
                              std::move(dag),
                              std::move(etc),
                              std::move(data),
                              workload::VersionModel{},
                              cycles_from_seconds(34075.0 * pressure)};
  scenario.validate();
  return scenario;
}

struct BenchContext {
  ReproScale scale;
  ScaleParams params;
  workload::SuiteParams suite_params;
};

inline BenchContext make_context(const std::string& bench_name) {
  BenchContext ctx;
  ctx.scale = repro_scale_from_env();
  ctx.params = scale_params(ctx.scale);

  ctx.suite_params.num_tasks = ctx.params.num_subtasks;
  ctx.suite_params.num_etc = ctx.params.num_etc;
  ctx.suite_params.num_dag = ctx.params.num_dag;
  ctx.suite_params.master_seed = ctx.params.master_seed;

  std::cout << "=== " << bench_name << " ===\n"
            << build_description() << ", jobs=" << global_pool_jobs() << "\n"
            << "scale: " << to_string(ctx.scale) << " (REPRO_SCALE"
            << "=smoke|default|paper to change)\n"
            << "|T|=" << ctx.suite_params.num_tasks << ", "
            << ctx.suite_params.num_etc << " ETC x " << ctx.suite_params.num_dag
            << " DAG, seed " << ctx.suite_params.master_seed << "\n\n";
  return ctx;
}

/// Central timing sink for one bench run. Every measured section goes
/// through timed_section() (or arrives pre-aggregated via merge() from the
/// runner's per-case phase metrics), so a single write_json() call dumps the
/// bench's complete, stably-named phase-time breakdown as BENCH_<name>.json
/// — counters plus "bench.<section>_seconds" / "slrh.*_seconds" /
/// "maxmax.*_seconds" / "tuner.*_seconds" histograms, prefixed by a `meta`
/// block (BENCH schema version, build identity, jobs, and any bench-set
/// entries such as cache hit/miss counts).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Attach a meta entry (string or integer) to the JSON dump.
  void meta(const std::string& key, std::string value) {
    meta_[key] = std::move(value);
  }
  void meta(const std::string& key, std::int64_t value) { meta_[key] = value; }

  /// Run `fn` and record its wall time into the histogram
  /// "bench.<section>_seconds". Returns fn's result.
  template <typename F>
  auto timed_section(const std::string& section, F&& fn) {
    obs::Histogram* hist =
        obs::phase_histogram(&metrics_, "bench." + section + "_seconds");
    const Stopwatch timer;
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      fn();
      hist->observe(timer.seconds());
    } else {
      auto result = fn();
      hist->observe(timer.seconds());
      return result;
    }
  }

  /// Fold externally collected metrics in (e.g. a CaseHeuristicSummary's
  /// phase snapshot).
  void merge(const obs::MetricsSnapshot& snapshot) { metrics_.merge(snapshot); }

  /// Write BENCH_<name>.json into the working directory and return the path.
  /// The meta block always carries the process resource footprint —
  /// peak_rss_bytes (VmHWM), cpu_seconds (user+system), and wall_seconds
  /// since this report was constructed — so bench_check --plot-scaling can
  /// chart memory growth and parallel efficiency (cpu/wall) per |T|.
  std::string write_json() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    os << "{\"bench\":\"" << obs::JsonWriter::escape(name_) << "\",\"meta\":{"
       << "\"schema\":" << kBenchSchemaVersion << ",\"version\":\""
       << obs::JsonWriter::escape(kProjectVersion) << "\",\"build_type\":\""
       << obs::JsonWriter::escape(build_type()) << "\",\"hardware_concurrency\":"
       << std::thread::hardware_concurrency() << ",\"jobs\":" << global_pool_jobs()
       << ",\"peak_rss_bytes\":" << obs::process_peak_rss_bytes()
       << ",\"cpu_seconds\":" << obs::process_cpu_seconds()
       << ",\"wall_seconds\":" << wall_.seconds();
    for (const auto& [key, value] : meta_) {
      os << ",\"" << obs::JsonWriter::escape(key) << "\":";
      if (const auto* text = std::get_if<std::string>(&value)) {
        os << "\"" << obs::JsonWriter::escape(*text) << "\"";
      } else {
        os << std::get<std::int64_t>(value);
      }
    }
    os << "},\"metrics\":";
    metrics_.snapshot().write_json(os);
    os << "}\n";
    return path;
  }

 private:
  std::string name_;
  obs::MetricsRegistry metrics_;
  std::map<std::string, std::variant<std::string, std::int64_t>> meta_;
  Stopwatch wall_;  ///< construction-to-write_json = the bench's wall clock
};

}  // namespace ahg::bench
