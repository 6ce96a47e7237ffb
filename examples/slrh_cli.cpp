// slrh_cli: run any heuristic on a generated or imported scenario from the
// command line — the downstream-user entry point.
//
//   slrh_cli --heuristic slrh1 --case A --tasks 256 --alpha 0.7 --beta 0.3
//   slrh_cli --scenario-in saved.scn --heuristic maxmax --validate
//   slrh_cli --tasks 128 --scenario-out saved.scn --heuristic none
//   slrh_cli --heuristic lagrangian --tasks 128 --case C
//   slrh_cli --heuristic maxmax --tasks 96 --out-dir traces --critical-path
//
// slrh_cli is the one artifact writer: every observation stream and schedule
// dump comes from its flags; run_report and trace_inspect read them back.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>

#include "core/baselines.hpp"
#include "core/churn.hpp"
#include "core/critical_path.hpp"
#include "core/heuristics.hpp"
#include "core/lagrangian.hpp"
#include "core/upper_bound.hpp"
#include "core/validate.hpp"
#include "sim/svg.hpp"
#include "sim/trace.hpp"
#include "support/args.hpp"
#include "support/chrome_trace.hpp"
#include "support/env.hpp"
#include "support/event_log.hpp"
#include "support/flight_recorder.hpp"
#include "support/runtime_profiler.hpp"
#include "support/task_ledger.hpp"
#include "support/thread_pool.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"
#include "workload/dynamics.hpp"
#include "workload/scenario_io.hpp"

namespace {

using namespace ahg;

int fail(const std::string& message) {
  std::cerr << "slrh_cli: " << message << "\n";
  return EXIT_FAILURE;
}

/// File stem for --out-dir artifacts: the display name of the paper's
/// heuristics ("SLRH-1", "Max-Max"), the CLI name of the baselines.
std::string artifact_stem(const std::string& name) {
  if (name == "slrh1") return core::to_string(core::HeuristicKind::Slrh1);
  if (name == "slrh2") return core::to_string(core::HeuristicKind::Slrh2);
  if (name == "slrh3") return core::to_string(core::HeuristicKind::Slrh3);
  if (name == "maxmax") return core::to_string(core::HeuristicKind::MaxMax);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("slrh_cli",
                 "run ad hoc grid resource-management heuristics on a scenario");
  args.add_string("heuristic", "slrh1",
                  "slrh1|slrh2|slrh3|maxmax|minmin|olb|random|lagrangian|none");
  args.add_string("case", "A", "grid case: A (2f+2s), B (2f+1s), C (1f+2s)");
  args.add_int("tasks", 256, "number of subtasks |T|");
  args.add_int("etc", 0, "ETC matrix index within the suite");
  args.add_int("dag", 0, "DAG index within the suite");
  args.add_int("seed", 20040426, "suite master seed");
  args.add_double("alpha", 0.7, "objective weight on T100");
  args.add_double("beta", 0.3, "objective weight on TEC (gamma = 1-alpha-beta)");
  args.add_int("dt", 10, "SLRH timestep in cycles");
  args.add_int("horizon", 100, "SLRH receding horizon in cycles");
  args.add_double("arrival-spread", 0.0,
                  "spread subtask arrivals over this fraction of tau");
  args.add_double("outages", 0.0, "mean link outages per machine (60 s each)");
  args.add_double("churn-rate", 0.0,
                  "mean machine departures per machine (walk-out + battery "
                  "death); slrh1-3 recover mid-run, other heuristics run "
                  "churn-blind");
  args.add_string("churn-recovery", "remap",
                  "orphan recovery policy: remap|degrade (degrade pins "
                  "invalidated subtasks to their secondary versions)");
  args.add_string("scenario-in", "", "load a scenario file instead of generating");
  args.add_string("scenario-out", "", "save the scenario to this file");
  args.add_flag("validate", "run the independent schedule validator");
  args.add_flag("bound", "also compute the T100 upper bound");
  args.add_string("trace-jsonl", "",
                  "write a per-decision JSONL trace (run/pool/map/stall events) "
                  "to this file; slrh1-3 and maxmax only — inspect with "
                  "trace_inspect");
  args.add_string("metrics", "",
                  "write counters and phase-time histograms as JSON to this "
                  "file after the run; an attached task ledger adds its "
                  "dwell-time histograms, --chrome-trace the pool's runtime "
                  "counters");
  args.add_string("frames-jsonl", "",
                  "attach a full-fidelity flight recorder (slrh1-3, maxmax; "
                  "churn-aware) and write its per-timestep frames as JSONL to "
                  "this file — analyse with run_report, compare with "
                  "run_report --diff");
  args.add_string("chrome-trace", "",
                  "attach the flight recorder, a task ledger and a thread-pool "
                  "runtime profiler and write them as one Chrome trace_event "
                  "JSON document (load in chrome://tracing or Perfetto; "
                  "summarise the worker rows with run_report --workers)");
  args.add_string("spans-jsonl", "",
                  "attach a task ledger (slrh1-3, maxmax; churn-aware) and "
                  "write its task-major spans (exec/input/wait) as JSONL to "
                  "this file — analyse with run_report --spans");
  args.add_flag("critical-path",
                "attach a task ledger and print the makespan critical path "
                "with per-category attribution after the run");
  args.add_string("out-dir", "",
                  "write the schedule to this directory as "
                  "<Heuristic>_assignments.csv, _assignments.jsonl "
                  "(assignments, then comms), _comms.csv and _gantt.svg");
  args.add_string("heartbeat", "",
                  "periodically rewrite this JSON file with live progress "
                  "(phase, clock, tasks placed, per-worker busy %, RSS, ETA) "
                  "while the run is in flight; slrh1-3 publish per tick");
  args.add_int("jobs", 0,
               "worker threads for parallel phases (0 = AHG_JOBS env, then "
               "hardware concurrency)");
  args.add_flag("version", "print build identity and exit");
  if (!args.parse(argc, argv)) return args.error() ? EXIT_FAILURE : EXIT_SUCCESS;
  // --jobs wins over the AHG_JOBS environment override; either sizes the
  // global pool (scenario-cache builds) before first use.
  try {
    std::int64_t jobs = args.get_int("jobs");
    if (jobs < 0) return fail("--jobs must be >= 0");
    if (jobs == 0) {
      jobs = env_int_checked("AHG_JOBS", 0, 0,
                             static_cast<std::int64_t>(kMaxPoolThreads));
    }
    if (jobs > 0) configure_global_pool(static_cast<std::size_t>(jobs));
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (args.get_flag("version")) {
    std::cout << build_description() << ", jobs=" << global_pool_jobs() << "\n";
    return EXIT_SUCCESS;
  }

  // --- scenario -----------------------------------------------------------
  std::optional<workload::Scenario> scenario;
  std::string scenario_label;  // names the scenario in the SVG Gantt title
  if (const auto path = args.get_string("scenario-in"); !path.empty()) {
    scenario_label = std::filesystem::path(path).filename().string();
    try {
      scenario = workload::load_scenario(path);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  } else {
    workload::SuiteParams suite_params;
    suite_params.num_tasks = static_cast<std::size_t>(args.get_int("tasks"));
    suite_params.num_etc = static_cast<std::size_t>(args.get_int("etc")) + 1;
    suite_params.num_dag = static_cast<std::size_t>(args.get_int("dag")) + 1;
    suite_params.master_seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::string case_name = args.get_string("case");
    sim::GridCase grid_case;
    if (case_name == "A" || case_name == "a") grid_case = sim::GridCase::A;
    else if (case_name == "B" || case_name == "b") grid_case = sim::GridCase::B;
    else if (case_name == "C" || case_name == "c") grid_case = sim::GridCase::C;
    else return fail("unknown case '" + case_name + "' (want A, B or C)");
    scenario_label = sim::to_string(grid_case);
    const workload::ScenarioSuite suite(suite_params);
    scenario = suite.make(grid_case, static_cast<std::size_t>(args.get_int("etc")),
                          static_cast<std::size_t>(args.get_int("dag")));
    if (const double spread = args.get_double("arrival-spread"); spread > 0.0) {
      workload::ReleaseParams params;
      params.spread_fraction = spread;
      scenario->releases = workload::generate_release_times(
          params, scenario->dag, scenario->tau, suite_params.master_seed ^ 0xA11);
    }
    if (const double outages = args.get_double("outages"); outages > 0.0) {
      workload::OutageParams params;
      params.outages_per_machine = outages;
      scenario->link_outages = workload::generate_link_outages(
          params, scenario->num_machines(), scenario->tau,
          suite_params.master_seed ^ 0x0F7);
    }
    if (const double churn_rate = args.get_double("churn-rate"); churn_rate > 0.0) {
      workload::ChurnParams params;
      params.departures_per_machine = churn_rate;
      const auto trace = workload::generate_machine_churn(
          params, scenario->num_machines(), scenario->tau,
          suite_params.master_seed ^ 0xC4C);
      scenario->machine_windows = trace.windows;
      std::cout << "churn: " << trace.num_departures() << " departure(s) drawn at "
                << churn_rate << "/machine\n";
    }
  }

  if (const auto path = args.get_string("scenario-out"); !path.empty()) {
    try {
      workload::save_scenario(path, *scenario);
      std::cout << "scenario saved to " << path << "\n";
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }

  std::cout << "scenario: |T|=" << scenario->num_tasks() << ", machines "
            << scenario->num_machines() << " ("
            << scenario->grid.count(sim::MachineClass::Fast) << " fast, "
            << scenario->grid.count(sim::MachineClass::Slow) << " slow), tau "
            << seconds_from_cycles(scenario->tau) << " s\n";

  if (args.get_flag("bound")) {
    const auto ub = core::compute_upper_bound(*scenario);
    std::cout << "upper bound on T100: " << ub.bound
              << (ub.cycle_limited ? " (cycle-limited)" : "")
              << (ub.energy_limited ? " (energy-limited)" : "") << "\n";
  }

  // --- heuristic ------------------------------------------------------------
  const std::string name = args.get_string("heuristic");
  if (name == "none") return EXIT_SUCCESS;

  const core::Weights weights =
      core::Weights::make(args.get_double("alpha"), args.get_double("beta"));
  core::SlrhClock clock;
  clock.dt = args.get_int("dt");
  clock.horizon = args.get_int("horizon");

  // --- observability --------------------------------------------------------
  const std::string trace_path = args.get_string("trace-jsonl");
  const std::string metrics_path = args.get_string("metrics");
  const std::string frames_path = args.get_string("frames-jsonl");
  const std::string chrome_path = args.get_string("chrome-trace");
  obs::MetricsRegistry metrics;
  std::ofstream trace_stream;
  std::unique_ptr<obs::Sink> sink_holder;
  obs::Sink* sink = nullptr;
  if (!trace_path.empty()) {
    trace_stream.open(trace_path);
    if (!trace_stream) return fail("cannot open trace file " + trace_path);
    sink_holder = std::make_unique<obs::JsonlSink>(trace_stream, &metrics);
    sink = sink_holder.get();
  } else if (!metrics_path.empty()) {
    // Metrics without a decision trace: a forwarding sink with no downstream
    // collects phase histograms but skips event assembly entirely.
    sink_holder = std::make_unique<obs::ForwardSink>(&metrics, nullptr);
    sink = sink_holder.get();
  }
  // Flight recorder: the analysis exporters want full fidelity, so every
  // tick is sampled and every pool build timed (dense_options) — this is an
  // inspection run, not a benchmark.
  std::optional<obs::FlightRecorder> recorder_storage;
  obs::FlightRecorder* recorder = nullptr;
  if (!frames_path.empty() || !chrome_path.empty()) {
    recorder_storage.emplace(obs::FlightRecorder::dense_options());
    recorder = &*recorder_storage;
  }
  // Task ledger: per-subtask lifecycle spans and the critical-path walk's
  // admission clocks. Also feeds the chrome trace's task-major rows.
  const std::string spans_path = args.get_string("spans-jsonl");
  const bool want_critical_path = args.get_flag("critical-path");
  std::optional<obs::TaskLedger> ledger_storage;
  obs::TaskLedger* ledger = nullptr;
  if (!spans_path.empty() || want_critical_path || !chrome_path.empty()) {
    ledger_storage.emplace(scenario->num_tasks());
    ledger = &*ledger_storage;
  }
  // Runtime profiler + heartbeat: wall-clock observability on the pool
  // itself, heuristic-agnostic (any pool user is covered). The heartbeat is
  // declared AFTER the profiler so its background thread stops before the
  // profiler it samples is destroyed.
  const std::string heartbeat_path = args.get_string("heartbeat");
  std::optional<obs::RuntimeProfiler> profiler_storage;
  obs::RuntimeProfiler* profiler = nullptr;
  if (!chrome_path.empty()) {
    profiler_storage.emplace(global_pool().size());
    profiler = &*profiler_storage;
    global_pool().set_profiler(profiler);
  }
  std::optional<obs::Heartbeat> heartbeat_storage;
  obs::Heartbeat* heartbeat = nullptr;
  if (!heartbeat_path.empty()) {
    obs::Heartbeat::Options hb_options;
    hb_options.path = heartbeat_path;
    hb_options.interval_seconds = 1.0;
    heartbeat_storage.emplace(hb_options, profiler);
    heartbeat = &*heartbeat_storage;
    heartbeat->set_phase(name);
  }
  const auto aet_sign = core::AetSign::Reward;
  if ((sink != nullptr || recorder != nullptr || ledger != nullptr) &&
      name != "slrh1" && name != "slrh2" && name != "slrh3" && name != "maxmax") {
    std::cerr << "slrh_cli: note: --trace-jsonl/--metrics/--frames-jsonl/"
                 "--chrome-trace/--spans-jsonl/--critical-path instrument only "
                 "slrh1-3 and maxmax; '"
              << name << "' emits no telemetry\n";
  }

  const std::string recovery_name = args.get_string("churn-recovery");
  core::ChurnRecovery recovery;
  if (recovery_name == "remap") recovery = core::ChurnRecovery::Remap;
  else if (recovery_name == "degrade") recovery = core::ChurnRecovery::Degrade;
  else return fail("unknown recovery policy '" + recovery_name +
                   "' (want remap or degrade)");
  const bool churny = !scenario->machine_windows.empty();
  const auto run_slrh_variant = [&](core::SlrhVariant variant) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = weights;
    params.dt = clock.dt;
    params.horizon = clock.horizon;
    params.aet_sign = aet_sign;
    params.sink = sink;
    params.recorder = recorder;
    params.ledger = ledger;
    params.heartbeat = heartbeat;
    if (!churny) return core::run_slrh(*scenario, params);
    const auto outcome = core::run_slrh_with_churn(*scenario, params, recovery);
    std::cout << "churn recovery (" << core::to_string(recovery) << "): "
              << outcome.departures_processed << " departure(s), "
              << outcome.orphaned << " orphan(s) returned, "
              << outcome.invalidated << " other subtask(s) invalidated, "
              << outcome.energy_forfeited << " energy units forfeited\n";
    return outcome.result;
  };

  core::MappingResult result;
  if (name == "slrh1") {
    result = run_slrh_variant(core::SlrhVariant::V1);
  } else if (name == "slrh2") {
    result = run_slrh_variant(core::SlrhVariant::V2);
  } else if (name == "slrh3") {
    result = run_slrh_variant(core::SlrhVariant::V3);
  } else if (name == "maxmax") {
    result = core::run_heuristic(core::HeuristicKind::MaxMax, *scenario, weights,
                                 clock, aet_sign, sink, nullptr, recorder, ledger);
  } else if (name == "minmin") {
    result = core::run_minmin(*scenario);
  } else if (name == "olb") {
    result = core::run_olb(*scenario);
  } else if (name == "random") {
    core::RandomMapperParams rparams;
    rparams.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    result = core::run_random(*scenario, rparams);
  } else if (name == "lagrangian") {
    core::LagrangianParams lparams;
    lparams.clock = clock;
    const auto outcome = core::run_lagrangian_iteration(*scenario, lparams);
    std::cout << "lagrangian iteration: " << outcome.runs << " inner runs, "
              << (outcome.converged ? "converged" : "iteration cap") << "\n";
    if (!outcome.found) return fail("no feasible mapping found by the iteration");
    std::cout << "best multiplier weights: " << outcome.best_weights.str() << "\n";
    result = outcome.best;
  } else {
    return fail("unknown heuristic '" + name + "'");
  }

  // The run is quiescent now (every parallel_for has joined), so this is a
  // legal detach point; the profiler object stays alive for the exporters.
  if (profiler != nullptr) global_pool().set_profiler(nullptr);
  if (heartbeat != nullptr) heartbeat->set_phase("done");

  std::cout << name << ": mapped " << result.assigned << "/" << scenario->num_tasks()
            << ", T100=" << result.t100 << ", AET " << seconds_from_cycles(result.aet)
            << " s (tau " << (result.within_tau ? "met" : "VIOLATED") << "), TEC "
            << result.tec << ", heuristic " << result.wall_seconds * 1e3 << " ms\n";

  // Memory telemetry gauges: per-structure footprints plus process peak RSS,
  // visible in --metrics output.
  if (result.schedule != nullptr) {
    metrics.gauge("memory.timeline_bytes")
        .set(static_cast<double>(result.schedule->timeline_memory_bytes()));
  }
  if (recorder != nullptr) {
    metrics.gauge("memory.flight_recorder_bytes")
        .set(static_cast<double>(
            recorder->memory_bound_bytes(scenario->num_machines())));
  }
  if (ledger != nullptr) {
    metrics.gauge("memory.task_ledger_bytes")
        .set(static_cast<double>(ledger->memory_bound_bytes()));
  }
  metrics.gauge("runtime.peak_rss_bytes")
      .set(static_cast<double>(obs::process_peak_rss_bytes()));

  if (!trace_path.empty()) {
    const auto* jsonl = static_cast<const obs::JsonlSink*>(sink);
    std::cout << "trace: " << jsonl->events_written() << " events -> " << trace_path
              << "\n";
  }
  if (!metrics_path.empty()) {
    if (ledger != nullptr) metrics.merge(obs::ledger_metrics_snapshot(*ledger));
    if (profiler != nullptr) metrics.merge(obs::runtime_metrics_snapshot(*profiler));
    std::ofstream metrics_stream(metrics_path);
    if (!metrics_stream) return fail("cannot open metrics file " + metrics_path);
    metrics.snapshot().write_json(metrics_stream);
    metrics_stream << "\n";
    std::cout << "metrics -> " << metrics_path << "\n";
  }
  if (!frames_path.empty()) {
    std::ofstream frames_stream(frames_path);
    if (!frames_stream) return fail("cannot open frames file " + frames_path);
    recorder->write_frames_jsonl(frames_stream);
    std::cout << "frames: " << recorder->frames_recorded() << " recorded, "
              << recorder->frames_dropped() << " dropped -> " << frames_path
              << "\n";
  }
  if (!chrome_path.empty()) {
    std::ofstream chrome_stream(chrome_path);
    if (!chrome_stream) return fail("cannot open trace file " + chrome_path);
    obs::write_chrome_trace(chrome_stream, recorder, ledger, profiler, "slrh_cli");
    std::cout << "chrome trace: " << recorder->spans_recorded() << " span(s), "
              << recorder->frames_recorded() << " frame(s) -> " << chrome_path
              << "\n";
  }
  if (!spans_path.empty()) {
    std::ofstream spans_stream(spans_path);
    if (!spans_stream) return fail("cannot open spans file " + spans_path);
    ledger->write_spans_jsonl(spans_stream);
    std::cout << "spans: " << ledger->spans().size() << " span(s), "
              << ledger->transitions_recorded() << " transition(s) -> " << spans_path
              << "\n";
  }
  if (const std::filesystem::path out_dir = args.get_string("out-dir");
      !out_dir.empty() && result.schedule != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) return fail("cannot create " + out_dir.string() + ": " + ec.message());
    const sim::Schedule& schedule = *result.schedule;
    const std::string stem = artifact_stem(name);
    sim::SvgOptions svg;
    svg.title = stem + " — " + std::to_string(scenario->num_tasks()) +
                " subtasks, " + scenario_label;
    const std::pair<const char*, std::function<void(std::ostream&)>> dumps[] = {
        {"_assignments.csv",
         [&](std::ostream& os) { sim::write_assignment_csv(os, schedule); }},
        {"_assignments.jsonl",
         [&](std::ostream& os) {
           sim::write_assignment_jsonl(os, schedule);
           sim::write_comm_jsonl(os, schedule);
         }},
        {"_comms.csv", [&](std::ostream& os) { sim::write_comm_csv(os, schedule); }},
        {"_gantt.svg",
         [&](std::ostream& os) { sim::render_svg_gantt(os, schedule, svg); }},
    };
    for (const auto& [suffix, write] : dumps) {
      const auto path = out_dir / (stem + suffix);
      std::ofstream f(path);
      if (!f) return fail("cannot open " + path.string());
      write(f);
    }
    std::cout << "schedule: " << stem << "_{assignments.csv,assignments.jsonl,"
              << "comms.csv,gantt.svg} -> " << out_dir.string() << "\n";
  }
  if (want_critical_path && result.schedule != nullptr) {
    const auto report =
        core::analyze_critical_path(*scenario, *result.schedule, ledger);
    core::write_critical_path_report(std::cout, report);
  }

  if (args.get_flag("validate")) {
    core::ValidateOptions options;
    options.require_complete = false;
    options.require_within_tau = false;
    const auto report = core::validate_schedule(*scenario, *result.schedule, options);
    std::cout << "validation: " << report.str() << "\n";
    if (!report.ok()) return EXIT_FAILURE;
  }
  return result.complete ? EXIT_SUCCESS : EXIT_FAILURE;
}
