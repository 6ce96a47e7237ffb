#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <exception>
#include <optional>

#include "core/churn.hpp"
#include "core/maxmax.hpp"
#include "core/runner.hpp"
#include "core/scenario_cache.hpp"
#include "core/slrh.hpp"
#include "core/upper_bound.hpp"
#include "core/validate.hpp"
#include "support/rng.hpp"
#include "workload/dynamics.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace ahg;

namespace {

// ---------------------------------------------------------------------------
// Shapes. |T|/|M| = 128 with ~32 DAG levels is the bench_scale recipe at a
// size where one pass holds several scenarios: a pass's wall time then
// averages over scenarios instead of following one DAG's quirks.

constexpr std::size_t kWideTasks = 2048;
constexpr std::size_t kWideMachines = 16;
constexpr std::size_t kWideScenariosPerPass = 4;
constexpr std::size_t kChurnScenariosPerPass = 2;
constexpr double kChurnDeparturesPerMachine = 1.5;
// paper-tune set-up builds take about a millisecond each; a sample repeats
// them so that it lasts long enough to time steadily.
constexpr std::size_t kTuneSetupRepeats = 32;

const core::Weights kWeights = core::Weights::make(0.6, 0.3);

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall (from the span) and process CPU time of one public call, added to
/// the pass totals.
template <typename F>
auto timed_call(PassResult& pass, SpanLog& spans, std::string_view name, double* wall,
                F&& fn) {
  const double cpu0 = cpu_now();
  struct Account {
    PassResult& pass;
    SpanLog& spans;
    double cpu0;
    double* wall;
    ~Account() {
      const double w = spans.seconds(spans.last_closed());
      pass.wall_s += w;
      pass.cpu_s += cpu_now() - cpu0;
      if (wall != nullptr) *wall = w;
    }
  } account{pass, spans, cpu0, wall};
  return spans.time(name, std::forward<F>(fn));
}

// --- digest -----------------------------------------------------------------

void mix(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
}

template <typename T>
void mix_value(std::uint64_t& h, T value) {
  mix(h, &value, sizeof value);
}

/// FNV-1a over every assignment (task order) and communication (record
/// order), doubles by bit pattern: equal digests mean identical schedules.
void mix_schedule(std::uint64_t& h, const sim::Schedule* schedule) {
  if (schedule == nullptr) {
    mix_value(h, std::uint64_t{0});
    return;
  }
  mix_value(h, static_cast<std::uint64_t>(schedule->num_tasks()));
  for (TaskId t = 0; t < static_cast<TaskId>(schedule->num_tasks()); ++t) {
    if (!schedule->is_assigned(t)) {
      mix_value(h, std::int32_t{-1});
      continue;
    }
    const sim::Assignment& a = schedule->assignment(t);
    mix_value(h, a.machine);
    mix_value(h, static_cast<std::uint8_t>(a.version));
    mix_value(h, a.start);
    mix_value(h, a.finish);
    mix_value(h, a.energy);
  }
  for (const sim::CommEvent& c : schedule->comm_events()) {
    mix_value(h, c.from_task);
    mix_value(h, c.to_task);
    mix_value(h, c.from_machine);
    mix_value(h, c.to_machine);
    mix_value(h, c.start);
    mix_value(h, c.finish);
    mix_value(h, c.bits);
    mix_value(h, c.energy);
  }
}

// --- scenarios ----------------------------------------------------------------

/// bench_scale's recipe: half-fast/half-slow grid, ~32-level layered DAG,
/// tau and batteries scaled by the per-machine pressure relative to the
/// paper's 1024 tasks on 4 machines.
workload::Scenario make_wide_scenario(std::size_t num_tasks, std::size_t num_machines,
                                      std::uint64_t seed) {
  const double pressure =
      (static_cast<double>(num_tasks) / static_cast<double>(num_machines)) / 256.0;
  auto grid = sim::GridConfig::make(num_machines / 2, num_machines - num_machines / 2)
                  .with_battery_scale(pressure);
  workload::DagGeneratorParams dag_params;
  dag_params.num_nodes = num_tasks;
  dag_params.mean_level_width = std::max<std::size_t>(32, num_tasks / 32);
  auto dag = workload::generate_dag(dag_params, seed);
  auto data = workload::generate_data_sizes({}, dag, seed + 1);
  auto etc = workload::generate_etc({}, num_tasks, workload::machine_classes(grid),
                                    seed + 2);
  workload::Scenario scenario{std::move(grid),
                              std::move(dag),
                              std::move(etc),
                              std::move(data),
                              workload::VersionModel{},
                              cycles_from_seconds(34075.0 * pressure)};
  scenario.validate();
  return scenario;
}

workload::Scenario make_churn_scenario(std::uint64_t seed) {
  workload::Scenario scenario = make_wide_scenario(kWideTasks, kWideMachines, seed);
  workload::ChurnParams churn;
  churn.departures_per_machine = kChurnDeparturesPerMachine;
  scenario.machine_windows =
      workload::generate_machine_churn(churn, kWideMachines, scenario.tau,
                                       derive_seed(seed, 7))
          .windows;
  return scenario;
}

workload::ScenarioSuite make_suite(std::uint64_t pass_seed) {
  workload::SuiteParams params;
  params.num_tasks = 1024;
  params.num_etc = 1;
  params.num_dag = 1;
  params.master_seed = pass_seed;
  return workload::ScenarioSuite(params);
}

constexpr sim::GridCase kCases[] = {sim::GridCase::A, sim::GridCase::B,
                                    sim::GridCase::C};

/// Scenario + cache, built under setup spans.
struct Inputs {
  workload::Scenario scenario;
  std::unique_ptr<core::ScenarioCache> cache;
};

template <typename Make>
Inputs build_inputs(SpanLog& spans, Make&& make, SetupSample* sample) {
  Inputs in{spans.time("setup.scenario", make), nullptr};
  if (sample != nullptr) sample->scenario_s += spans.seconds(spans.last_closed());
  in.cache = spans.time("setup.cache", [&] {
    return std::make_unique<core::ScenarioCache>(in.scenario);
  });
  if (sample != nullptr) {
    sample->cache_s += spans.seconds(spans.last_closed());
    sample->columns_built += static_cast<double>(in.cache->columns_built());
  }
  return in;
}

// --- per-schedule bookkeeping ------------------------------------------------

/// Validate a final schedule against what the workload promises; a
/// violation counts the call as failed.
void check(PassResult& pass, SpanLog& spans, const workload::Scenario& scenario,
           const sim::Schedule* schedule, const core::ValidateOptions& options,
           const std::string& what) {
  if (schedule == nullptr) {
    ++pass.failed;
    pass.failures.push_back(what + ": no schedule");
    return;
  }
  const core::ValidationReport report = spans.time(
      "validate_schedule", [&] { return core::validate_schedule(scenario, *schedule, options); });
  if (!report.ok()) {
    ++pass.failed;
    pass.failures.push_back(what + ": " + report.violations.front());
  }
}

void record_outcome(PassResult& pass, std::size_t tasks, std::size_t t100,
                    std::size_t assigned, bool feasible) {
  pass.tasks += tasks;
  pass.t100 += t100;
  pass.assigned += assigned;
  pass.feasible += feasible ? 1 : 0;
  ++pass.outcomes;
}

void record_failure(PassResult& pass, const std::string& what, const std::exception& e) {
  ++pass.failed;
  pass.failures.push_back(what + " threw: " + e.what());
}

void time_upper_bound(PassResult& pass, SpanLog& spans, const Inputs& in, bool traced) {
  spans.time("compute_upper_bound",
             [&] { return core::compute_upper_bound(in.scenario, in.cache.get()); });
  if (traced) pass.layers["upper_bound.s"] += spans.seconds(spans.last_closed());
}

/// One SLRH call with (traced) a fresh registry + plan counter attached.
struct SlrhCall {
  core::SlrhParams params;
  obs::MetricsRegistry registry;
  PlanCounter plans;
  obs::ForwardSink sink{&registry, &plans};

  SlrhCall(core::SlrhVariant variant, const core::ScenarioCache* cache, bool traced) {
    params.variant = variant;
    params.weights = kWeights;
    params.cache = cache;
    if (traced) params.sink = &sink;
  }

  /// Add this call's layers under `prefix`, remainder to `remainder_key`.
  void account(PassResult& pass, const std::string& prefix, double wall,
               const std::string& remainder_key) {
    if (params.sink == nullptr) return;
    add_slrh_layers(pass.layers, prefix, registry.snapshot(), wall, remainder_key);
    pass.layers[prefix + ".placement.plans"] +=
        static_cast<double>(plans.plans(core::to_string(params.variant)));
  }
};

const char* prefix_of(core::SlrhVariant variant) {
  return variant == core::SlrhVariant::V1 ? "slrh1" : "slrh3";
}

Heuristic slot_of(core::SlrhVariant variant) {
  return variant == core::SlrhVariant::V1 ? kSlrh1 : kSlrh3;
}

/// Max-Max with (traced) a fresh registry; returns the result or nullopt.
std::optional<core::MappingResult> run_maxmax(PassResult& pass, SpanLog& spans,
                                              const Inputs& in, bool traced) {
  obs::MetricsRegistry registry;
  obs::ForwardSink sink(&registry, nullptr);
  core::MaxMaxParams params;
  params.weights = kWeights;
  params.cache = in.cache.get();
  if (traced) params.sink = &sink;
  ++pass.attempted;
  double wall = 0.0;
  try {
    core::MappingResult result = timed_call(
        pass, spans, "run_maxmax", &wall, [&] { return core::run_maxmax(in.scenario, params); });
    pass.call_s[kMaxMax].push_back(wall);
    if (traced) add_maxmax_layers(pass.layers, registry.snapshot(), wall);
    return result;
  } catch (const std::exception& e) {
    record_failure(pass, "Max-Max", e);
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------

/// The paper's evaluation loop: the tuned (alpha, beta) campaign through
/// evaluate_cells on |T| = 1024 suite scenarios, Cases A/B/C x
/// {SLRH-1, SLRH-3, Max-Max}, nine cells fanned out on two workers with
/// the tuner's sweep and SLRH's speculative fan-out nested inside.
class PaperTune final : public Workload {
 public:
  std::size_t workers() const override { return 2; }

  SetupSample setup(std::uint64_t pass_seed, SpanLog& spans) const override {
    SetupSample sample;
    for (std::size_t r = 0; r < kTuneSetupRepeats; ++r) {
      const workload::ScenarioSuite suite = make_suite(pass_seed);
      for (const sim::GridCase grid_case : kCases) {
        build_inputs(spans, [&] { return suite.make(grid_case, 0, 0); }, &sample);
      }
    }
    const auto n = static_cast<double>(kTuneSetupRepeats);
    sample.scenario_s /= n;
    sample.cache_s /= n;
    sample.columns_built /= n;
    return sample;
  }

  PassResult run_pass(std::uint64_t pass_seed, bool traced, SpanLog& spans) const override {
    PassResult pass;
    const workload::ScenarioSuite suite = make_suite(pass_seed);
    const std::vector<core::HeuristicKind> heuristics = {
        core::HeuristicKind::Slrh1, core::HeuristicKind::Slrh3,
        core::HeuristicKind::MaxMax};
    std::vector<core::CellRequest> requests;
    for (const sim::GridCase grid_case : kCases) {
      for (const core::HeuristicKind h : heuristics) requests.push_back({grid_case, h});
    }

    core::EvaluationParams params;
    obs::MetricsRegistry exec;
    PlanCounter plans;
    if (traced) params.sink = &plans;
    std::vector<core::CaseHeuristicSummary> cells;
    try {
      cells = timed_call(pass, spans, "evaluate_cells", nullptr, [&] {
        return core::evaluate_cells(suite, requests, params, traced ? &exec : nullptr);
      });
    } catch (const std::exception& e) {
      pass.attempted += requests.size();
      pass.failed += requests.size();
      pass.failures.push_back(std::string("evaluate_cells threw: ") + e.what());
      return pass;
    }

    for (std::size_t c = 0; c < cells.size(); ++c) {
      const core::CaseHeuristicSummary& cell = cells[c];
      const auto slot = static_cast<Heuristic>(c % heuristics.size());
      double cell_wall = 0.0;
      for (const core::ScenarioEvaluation& eval : cell.scenarios) {
        for (const core::TunedPoint& point : eval.tune.evaluated) {
          pass.call_s[slot].push_back(point.wall_seconds);
          cell_wall += point.wall_seconds;
          ++pass.attempted;
        }
      }
      if (!traced) continue;
      if (slot == kMaxMax) {
        add_maxmax_layers(pass.layers, cell.phases, cell_wall);
      } else {
        const std::string prefix = slot == kSlrh1 ? "slrh1" : "slrh3";
        add_slrh_layers(pass.layers, prefix, cell.phases, cell_wall,
                        prefix + ".slrh.unattributed_s");
      }
    }
    // Final schedules: the run at each cell's tuned optimum. Feasible by the
    // tuner's definition, so validated as complete and within tau.
    for (std::size_t k = 0; k < std::size(kCases); ++k) {
      const Inputs in =
          build_inputs(spans, [&] { return suite.make(kCases[k], 0, 0); }, nullptr);
      time_upper_bound(pass, spans, in, traced);
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        const core::CaseHeuristicSummary& cell = cells[k * heuristics.size() + h];
        for (const core::ScenarioEvaluation& eval : cell.scenarios) {
          const std::string what = sim::to_string(cell.grid_case) + " " +
                                   core::to_string(cell.heuristic) + " tuned";
          mix_value(pass.digest, static_cast<std::uint8_t>(eval.tune.found));
          mix_value(pass.digest, eval.tune.alpha);
          mix_value(pass.digest, eval.tune.beta);
          if (!eval.tune.found) {
            record_outcome(pass, in.scenario.num_tasks(), 0, 0, false);
            continue;
          }
          const sim::Schedule* schedule = eval.tune.best.schedule.get();
          check(pass, spans, in.scenario, schedule, core::ValidateOptions{}, what);
          mix_schedule(pass.digest, schedule);
          record_outcome(pass, in.scenario.num_tasks(), eval.tune.best.t100,
                         eval.tune.best.assigned, eval.tune.best.feasible());
        }
      }
    }

    if (traced) {
      const obs::MetricsSnapshot snap = exec.snapshot();
      pass.layers["runner.cell_s"] += histogram_sum(snap, "runner.cell_seconds");
      pass.layers["runner.cell_queue_s"] += histogram_sum(snap, "runner.cell_queue_seconds");
      for (const auto& g : snap.gauges) {
        if (g.name == "runner.pool_utilization") {
          pass.layers["runner.pool_utilization"] = g.value;
        }
      }
      for (const core::SlrhVariant v : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
        pass.layers[std::string(prefix_of(v)) + ".placement.plans"] +=
            static_cast<double>(plans.plans(core::to_string(v)));
      }
      const char* p50_names[kNumHeuristics] = {"tuner.slrh1.point_s_p50",
                                               "tuner.slrh3.point_s_p50",
                                               "tuner.maxmax.point_s_p50"};
      for (std::size_t h = 0; h < kNumHeuristics; ++h) {
        std::vector<double> v = pass.call_s[h];
        if (v.empty()) continue;
        std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                         v.end());
        pass.layers[p50_names[h]] = v[v.size() / 2];
      }
      pass.layers["tuner.points"] = static_cast<double>(pass.attempted);
    }
    return pass;
  }
};

/// bench_scale's placement-bound regime without churn: SLRH-1, SLRH-3 and
/// Max-Max once per scenario. One worker: with two, SLRH's per-tick
/// speculative hand-offs made its call times swing by 20-33 % (quartile
/// spread over ten seeds) on a shared 4-core host, beyond any usable bound.
class WideDag final : public Workload {
 public:
  std::size_t workers() const override { return 1; }

  SetupSample setup(std::uint64_t pass_seed, SpanLog& spans) const override {
    SetupSample sample;
    for (std::size_t i = 0; i < kWideScenariosPerPass; ++i) {
      build_inputs(spans, [&] {
        return make_wide_scenario(kWideTasks, kWideMachines, derive_seed(pass_seed, i));
      }, &sample);
    }
    return sample;
  }

  PassResult run_pass(std::uint64_t pass_seed, bool traced, SpanLog& spans) const override {
    PassResult pass;
    for (std::size_t i = 0; i < kWideScenariosPerPass; ++i) {
      const Inputs in = build_inputs(spans, [&] {
        return make_wide_scenario(kWideTasks, kWideMachines, derive_seed(pass_seed, i));
      }, nullptr);
      const std::size_t tasks = in.scenario.num_tasks();
      for (const core::SlrhVariant v : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
        SlrhCall call(v, in.cache.get(), traced);
        ++pass.attempted;
        double wall = 0.0;
        try {
          const core::MappingResult r = timed_call(pass, spans, "run_slrh", &wall, [&] {
            return core::run_slrh(in.scenario, call.params);
          });
          pass.call_s[slot_of(v)].push_back(wall);
          call.account(pass, prefix_of(v), wall,
                       std::string(prefix_of(v)) + ".slrh.unattributed_s");
          // At this pressure SLRH may leave work unmapped or finish past
          // tau; only the schedule's structure is promised.
          check(pass, spans, in.scenario, r.schedule.get(), {false, false},
                core::to_string(v));
          mix_schedule(pass.digest, r.schedule.get());
          record_outcome(pass, tasks, r.t100, r.assigned, r.feasible());
        } catch (const std::exception& e) {
          record_failure(pass, core::to_string(v), e);
        }
      }
      if (const auto r = run_maxmax(pass, spans, in, traced)) {
        // Deadline-aware Max-Max stays within tau but may leave work unmapped.
        check(pass, spans, in.scenario, r->schedule.get(), {false, true}, "Max-Max");
        mix_schedule(pass.digest, r->schedule.get());
        record_outcome(pass, tasks, r->t100, r->assigned, r->feasible());
      }
      time_upper_bound(pass, spans, in, traced);
    }
    return pass;
  }
};

/// Churn with recovery: machines depart mid-run (1.5 departures per machine),
/// SLRH-1/3 recover under Remap and Degrade, and static Max-Max is replayed
/// against the same departures. One worker: speculation and the pool are
/// bypassed, so this is also the single-threaded baseline.
class ChurnRecovery final : public Workload {
 public:
  std::size_t workers() const override { return 1; }

  SetupSample setup(std::uint64_t pass_seed, SpanLog& spans) const override {
    SetupSample sample;
    for (std::size_t i = 0; i < kChurnScenariosPerPass; ++i) {
      build_inputs(spans, [&] { return make_churn_scenario(derive_seed(pass_seed, i)); },
                   &sample);
    }
    return sample;
  }

  PassResult run_pass(std::uint64_t pass_seed, bool traced, SpanLog& spans) const override {
    PassResult pass;
    // Churn runs leave work unfinished by design; only the structure (and
    // presence windows) of their schedules is promised.
    const core::ValidateOptions churn_options{false, false};
    for (std::size_t i = 0; i < kChurnScenariosPerPass; ++i) {
      Inputs in = build_inputs(spans, [&] {
        return make_churn_scenario(derive_seed(pass_seed, i));
      }, nullptr);
      const std::size_t tasks = in.scenario.num_tasks();
      for (const core::SlrhVariant v : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
        for (const core::ChurnRecovery recovery :
             {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
          SlrhCall call(v, in.cache.get(), traced);
          const std::string what =
              core::to_string(v) + " " + core::to_string(recovery);
          ++pass.attempted;
          double wall = 0.0;
          try {
            const core::ChurnRunOutcome out =
                timed_call(pass, spans, "run_slrh_with_churn", &wall, [&] {
                  return core::run_slrh_with_churn(in.scenario, call.params, recovery);
                });
            pass.call_s[slot_of(v)].push_back(wall);
            call.account(pass, prefix_of(v), wall, "churn.recovery_s");
            if (traced) {
              pass.layers["churn.departures"] += static_cast<double>(out.departures_processed);
              pass.layers["churn.orphaned"] += static_cast<double>(out.orphaned);
              pass.layers["churn.invalidated"] += static_cast<double>(out.invalidated);
            }
            check(pass, spans, in.scenario, out.result.schedule.get(), churn_options, what);
            mix_schedule(pass.digest, out.result.schedule.get());
            record_outcome(pass, tasks, out.result.t100, out.result.assigned,
                           out.result.feasible());
          } catch (const std::exception& e) {
            record_failure(pass, what, e);
          }
        }
      }

      if (const auto r = run_maxmax(pass, spans, in, traced)) {
        // Max-Max plans for the static grid: validate it there, then replay
        // it against the departures it never saw.
        auto windows = std::move(in.scenario.machine_windows);
        in.scenario.machine_windows.clear();
        check(pass, spans, in.scenario, r->schedule.get(), {false, true}, "Max-Max");
        in.scenario.machine_windows = std::move(windows);
        mix_schedule(pass.digest, r->schedule.get());
        if (r->schedule != nullptr) {
          double wall = 0.0;
          const core::StaticChurnReplay replay =
              timed_call(pass, spans, "replay_static_under_churn", &wall, [&] {
                return core::replay_static_under_churn(in.scenario, *r->schedule);
              });
          if (traced) pass.layers["churn.replay_s"] += wall;
          mix_value(pass.digest, static_cast<std::uint64_t>(replay.completed));
          mix_value(pass.digest, static_cast<std::uint64_t>(replay.t100_completed));
          record_outcome(pass, tasks, replay.t100_completed, replay.completed,
                         replay.completed == tasks && replay.aet <= in.scenario.tau);
        }
      }
      time_upper_bound(pass, spans, in, traced);
    }
    return pass;
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "paper-tune") return std::make_unique<PaperTune>();
  if (name == "wide-dag") return std::make_unique<WideDag>();
  if (name == "churn-recovery") return std::make_unique<ChurnRecovery>();
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"paper-tune", "wide-dag", "churn-recovery"};
}

}  // namespace perfbench
