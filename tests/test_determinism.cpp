// Determinism contracts: every observer handle, accelerator and build mode
// leaves schedules BIT-IDENTICAL — same T100, same AET, same TEC down to the
// last double bit, same per-subtask placements — and the one production
// pool builder agrees with the test-only scan oracle (tests/oracles.hpp)
// pool for pool. The absolute schedules themselves are pinned by the golden
// digests in tests/test_golden_schedules.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/churn.hpp"
#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/heuristics.hpp"
#include "core/placement.hpp"
#include "core/runner.hpp"
#include "core/scenario_cache.hpp"
#include "core/tuner.hpp"
#include "core/upper_bound.hpp"
#include "support/flight_recorder.hpp"
#include "support/runtime_profiler.hpp"
#include "support/task_ledger.hpp"
#include "support/thread_pool.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg {
namespace {

// Pin the process-wide pool to four workers BEFORE anything builds it (each
// test file is its own binary, so this static initializer runs first). The
// parallel scenario-cache build, the concurrent cache readers and the
// evaluation matrix's cell fan-out only run concurrently at >= 2 workers;
// without the pin, single-core CI hosts would silently test their serial
// fallbacks and call it coverage. Every test in this binary therefore runs
// with a real multi-worker pool — which is exactly what the TSan job wants
// to race-check.
[[maybe_unused]] const bool kForceParallelPool = [] {
  configure_global_pool(4);
  return true;
}();

using test::paper_shape_fixtures;

void expect_identical(const core::MappingResult& reference,
                      const core::MappingResult& other,
                      const workload::Scenario& scenario, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(reference.complete, other.complete);
  EXPECT_EQ(reference.assigned, other.assigned);
  EXPECT_EQ(reference.t100, other.t100);
  EXPECT_EQ(reference.aet, other.aet);
  EXPECT_EQ(reference.tec, other.tec);  // exact: bit-identical doubles
  ASSERT_NE(reference.schedule, nullptr);
  ASSERT_NE(other.schedule, nullptr);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    ASSERT_EQ(reference.schedule->is_assigned(t), other.schedule->is_assigned(t))
        << "task " << t;
    if (!reference.schedule->is_assigned(t)) continue;
    const auto& a = reference.schedule->assignment(t);
    const auto& b = other.schedule->assignment(t);
    EXPECT_EQ(a.machine, b.machine) << "task " << t;
    EXPECT_EQ(a.version, b.version) << "task " << t;
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_EQ(a.energy, b.energy) << "task " << t;  // exact
  }
}

TEST(Determinism, ChurnOffDriverMatchesPlainSlrh) {
  // churn=off contract: routing a run through run_slrh_with_churn — with no
  // presence windows, and with trivial all-present windows that exercise the
  // availability check on every sweep — is bit-identical to run_slrh.
  for (const auto& scenario : paper_shape_fixtures()) {
    auto trivial = scenario;
    trivial.machine_windows.assign(scenario.num_machines(),
                                   workload::Scenario::MachineWindow{});
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);

      const auto plain = core::run_slrh(scenario, params);
      const auto off = core::run_slrh_with_churn(scenario, params);
      const auto all_present = core::run_slrh_with_churn(trivial, params);

      EXPECT_EQ(off.departures_processed, 0u);
      EXPECT_EQ(all_present.departures_processed, 0u);
      expect_identical(plain, off.result, scenario, to_string(variant).c_str());
      expect_identical(plain, all_present.result, scenario,
                       to_string(variant).c_str());
    }
  }
}

// Hole-index side of the placement contract: every timeline a real run
// commits (compute/tx/rx, SLRH and Max-Max, including churn-recovered state)
// must answer earliest_fit probes identically through the indexed path and
// the test-only brute-force gap scan.
void expect_hole_index_matches_brute_force(const core::MappingResult& result,
                                    const workload::Scenario& scenario,
                                    const char* label) {
  SCOPED_TRACE(label);
  ASSERT_NE(result.schedule, nullptr);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  for (MachineId m = 0; m < num_machines; ++m) {
    for (const sim::Timeline* tl :
         {&result.schedule->compute_timeline(m), &result.schedule->tx_timeline(m),
          &result.schedule->rx_timeline(m)}) {
      for (const Cycles p : {Cycles{0}, scenario.tau / 3, scenario.tau}) {
        for (const Cycles d : {Cycles{1}, Cycles{100}, scenario.tau / 4}) {
          EXPECT_EQ(tl->earliest_fit(p, d), test::brute_force_fit(*tl, p, d))
              << "machine " << m << " p=" << p << " d=" << d;
        }
      }
    }
  }
}

TEST(Determinism, HoleIndexMatchesBruteForceOnRunTimelines) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::SlrhParams slrh;
    slrh.weights = core::Weights::make(0.6, 0.3);
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      slrh.variant = variant;
      expect_hole_index_matches_brute_force(core::run_slrh(scenario, slrh), scenario,
                                     to_string(variant).c_str());
    }
    core::MaxMaxParams maxmax;
    maxmax.weights = core::Weights::make(0.6, 0.3);
    expect_hole_index_matches_brute_force(core::run_maxmax(scenario, maxmax), scenario,
                                   "Max-Max");
  }
  // Churn-recovered schedules hit erase(): the index must stay coherent.
  const auto churned = test::one_departure_scenario();
  core::SlrhParams params;
  params.variant = core::SlrhVariant::V1;
  params.weights = core::Weights::make(0.6, 0.3);
  const auto churn = core::run_slrh_with_churn(churned, params);
  EXPECT_GT(churn.departures_processed, 0u);
  expect_hole_index_matches_brute_force(churn.result, churned, "churn recovery");
}

// The flight recorder's side of the null-handle contract: attaching one —
// at the default decimated sampling AND at dense every-tick sampling — must
// leave every schedule bit-identical to the recorder-off run. Recording only
// observes; no decision may read recorder state or depend on a clock it
// introduces.
TEST(Determinism, SlrhRecorderOnMatchesRecorderOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::FlightRecorder sampled;  // default idle/span strides
      params.recorder = &sampled;
      const auto with_sampled = core::run_slrh(scenario, params);

      obs::FlightRecorder dense(obs::FlightRecorder::dense_options());
      params.recorder = &dense;
      const auto with_dense = core::run_slrh(scenario, params);

      expect_identical(off, with_sampled, scenario, to_string(variant).c_str());
      expect_identical(off, with_dense, scenario, to_string(variant).c_str());
      EXPECT_GT(dense.frames_recorded(), 0u);
      EXPECT_GE(dense.frames_recorded(), sampled.frames_recorded());
    }
  }
}

TEST(Determinism, MaxMaxRecorderOnMatchesRecorderOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    params.recorder = &recorder;
    const auto on = core::run_maxmax(scenario, params);

    expect_identical(off, on, scenario, "Max-Max recorder on");
    EXPECT_EQ(recorder.frames_recorded(),
              static_cast<std::uint64_t>(on.assigned));
  }
}

TEST(Determinism, ChurnRecorderOnMatchesRecorderOff) {
  // Same contract through the churn driver: recovery spans and churn-context
  // stamping must not perturb the rebuilt schedules.
  // One mid-run departure so the recovery path actually runs. Early enough
  // (tau/8) that every variant — V3 finishes mapping fastest — still has
  // work left afterwards, so post-recovery frames exist to check.
  const auto scenario = test::one_departure_scenario();
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    params.recorder = &recorder;
    const auto on = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario,
                     to_string(variant).c_str());

    // The recording saw the churn: later frames carry the cumulative tallies
    // and a churn_recovery span exists.
    const auto frames = recorder.frames();
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back().departures,
              static_cast<std::uint64_t>(off.departures_processed));
    bool saw_recovery = false;
    for (const auto& span : recorder.spans()) {
      if (span.name == "churn_recovery") saw_recovery = true;
    }
    EXPECT_TRUE(saw_recovery);
  }
}

// The task ledger's side of the null-handle contract, mirroring the recorder
// trio: attaching one must leave every schedule bit-identical to the
// ledger-off run. The ledger only observes; no decision may read its state.
TEST(Determinism, SlrhLedgerOnMatchesLedgerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::TaskLedger ledger(scenario.num_tasks());
      params.ledger = &ledger;
      const auto on = core::run_slrh(scenario, params);

      expect_identical(off, on, scenario, to_string(variant).c_str());
      EXPECT_GT(ledger.transitions_recorded(), 0u);
      // Every mapped task carries a full release->completion record.
      const auto records = ledger.records();
      for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
        if (!on.schedule->is_assigned(t)) continue;
        const auto& r = records[static_cast<std::size_t>(t)];
        EXPECT_EQ(r.state, obs::TaskState::Completed) << "task " << t;
        EXPECT_EQ(r.exec_start, on.schedule->assignment(t).start) << "task " << t;
        EXPECT_EQ(r.exec_finish, on.schedule->assignment(t).finish) << "task " << t;
      }
    }
  }
}

TEST(Determinism, MaxMaxLedgerOnMatchesLedgerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::TaskLedger ledger(scenario.num_tasks());
    params.ledger = &ledger;
    const auto on = core::run_maxmax(scenario, params);

    expect_identical(off, on, scenario, "Max-Max ledger on");
    EXPECT_GT(ledger.transitions_recorded(), 0u);
  }
}

TEST(Determinism, ChurnLedgerOnMatchesLedgerOff) {
  // Same contract through the churn driver: orphan/invalidation recording and
  // the re-armed pool flags must not perturb the rebuilt schedules.
  const auto scenario = test::one_departure_scenario();
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::TaskLedger ledger(scenario.num_tasks());
    params.ledger = &ledger;
    const auto on = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario, to_string(variant).c_str());

    // The ledger saw the churn: orphan/invalidation tallies match the
    // driver's, and remapped work carries attempts > 1.
    std::uint64_t orphans = 0, invalidated = 0;
    bool saw_remap = false;
    for (const auto& r : ledger.records()) {
      orphans += r.orphan_count;
      invalidated += r.invalidated_count;
      if (r.attempts > 1) saw_remap = true;
    }
    EXPECT_EQ(orphans, static_cast<std::uint64_t>(off.orphaned));
    EXPECT_EQ(invalidated, static_cast<std::uint64_t>(off.invalidated));
    EXPECT_TRUE(saw_remap);
  }
}

// The runtime profiler's side of the null-handle contract. Unlike the
// recorder/ledger — which thread through params — the profiler attaches to
// the process-wide pool, so the hooks sit inside the workers themselves.
// Attaching one must still leave every schedule bit-identical: the profiler
// only reads clocks and counters, never influences task order or placement.
TEST(Determinism, SlrhProfilerOnMatchesProfilerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::RuntimeProfiler profiler(global_pool().size());
      global_pool().set_profiler(&profiler);
      const auto on = core::run_slrh(scenario, params);
      global_pool().set_profiler(nullptr);

      expect_identical(off, on, scenario, to_string(variant).c_str());
      // Without params.cache, run_slrh builds its run-local scenario cache
      // on the pinned 4-worker pool, so the profiler must have seen pool
      // tasks and the cache-build region.
      EXPECT_GT(profiler.totals().tasks, 0u);
      bool saw_cache_build = false;
      for (const auto& region : profiler.snapshot_regions()) {
        if (region.name == "cache_build") saw_cache_build = true;
      }
      EXPECT_TRUE(saw_cache_build);
    }
  }
}

// drive_slrh is single-threaded: once the scenario tables exist, a mapping
// run submits nothing to the process-wide pool. With a prebuilt shared cache
// the attached profiler must therefore count zero pool tasks, even on the
// pinned 4-worker pool, and the schedule must match the run-local-cache run.
TEST(Determinism, SlrhWithSharedCacheRunsNoPoolTasks) {
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache shared(scenario);
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto local = core::run_slrh(scenario, params);

      params.cache = &shared;
      obs::RuntimeProfiler profiler(global_pool().size());
      global_pool().set_profiler(&profiler);
      const auto cached = core::run_slrh(scenario, params);
      global_pool().set_profiler(nullptr);

      expect_identical(local, cached, scenario, to_string(variant).c_str());
      EXPECT_EQ(profiler.totals().tasks, 0u);
    }
  }
}

TEST(Determinism, ChurnWithSharedCacheRunsNoPoolTasks) {
  const auto scenario = test::one_departure_scenario();
  const core::ScenarioCache shared(scenario);
  for (const auto recovery : {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
    for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
      SCOPED_TRACE(to_string(recovery));
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto local = core::run_slrh_with_churn(scenario, params, recovery);

      params.cache = &shared;
      obs::RuntimeProfiler profiler(global_pool().size());
      global_pool().set_profiler(&profiler);
      const auto cached = core::run_slrh_with_churn(scenario, params, recovery);
      global_pool().set_profiler(nullptr);

      EXPECT_GT(local.departures_processed, 0u);
      EXPECT_EQ(cached.departures_processed, local.departures_processed);
      EXPECT_EQ(cached.orphaned, local.orphaned);
      EXPECT_EQ(cached.invalidated, local.invalidated);
      EXPECT_EQ(cached.energy_forfeited, local.energy_forfeited);  // exact
      expect_identical(local.result, cached.result, scenario,
                       to_string(variant).c_str());
      EXPECT_EQ(profiler.totals().tasks, 0u);
    }
  }
}

TEST(Determinism, MaxMaxProfilerOnMatchesProfilerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::RuntimeProfiler profiler(global_pool().size());
    global_pool().set_profiler(&profiler);
    const auto on = core::run_maxmax(scenario, params);
    global_pool().set_profiler(nullptr);

    // Max-Max is a serial heuristic — no pool tasks is fine; the contract is
    // only that an attached profiler perturbs nothing.
    expect_identical(off, on, scenario, "Max-Max profiler on");
  }
}

TEST(Determinism, ChurnProfilerOnMatchesProfilerOff) {
  const auto scenario = test::one_departure_scenario();
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::RuntimeProfiler profiler(global_pool().size());
    global_pool().set_profiler(&profiler);
    const auto on = core::run_slrh_with_churn(scenario, params);
    global_pool().set_profiler(nullptr);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario, to_string(variant).c_str());
    EXPECT_GT(profiler.totals().tasks, 0u);
  }
}

TEST(Determinism, ParallelMatrixProfilerOnMatchesProfilerOff) {
  // The profiler hooks also wrap the matrix-cell fan-out and the parallel /
  // lazy cache builds underneath evaluate_matrix; the whole nested stack must
  // stay bit-identical with a profiler attached.
  workload::SuiteParams suite_params;
  suite_params.num_tasks = 48;
  suite_params.num_etc = 2;
  suite_params.num_dag = 2;
  suite_params.master_seed = 777;
  const workload::ScenarioSuite suite(suite_params);
  const auto cases = {sim::GridCase::A, sim::GridCase::B};
  const std::vector<core::HeuristicKind> heuristics = {
      core::HeuristicKind::Slrh1, core::HeuristicKind::MaxMax};

  core::EvaluationParams params;
  params.tuner.coarse_step = 0.25;
  params.tuner.fine_step = 0.0;
  params.tuner.parallel = true;
  params.parallel_cells = true;

  const auto off = core::evaluate_matrix(suite, cases, heuristics, params);

  obs::RuntimeProfiler profiler(global_pool().size());
  global_pool().set_profiler(&profiler);
  const auto on = core::evaluate_matrix(suite, cases, heuristics, params);
  global_pool().set_profiler(nullptr);

  EXPECT_GT(profiler.totals().tasks, 0u);
  bool saw_cells = false;
  for (const auto& region : profiler.snapshot_regions()) {
    if (region.name == "matrix_cells") saw_cells = true;
  }
  EXPECT_TRUE(saw_cells);

  ASSERT_EQ(off.cells.size(), on.cells.size());
  for (std::size_t c = 0; c < off.cells.size(); ++c) {
    const auto& a = off.cells[c];
    const auto& b = on.cells[c];
    SCOPED_TRACE("cell " + sim::to_string(a.grid_case) + "/" +
                 core::to_string(a.heuristic));
    EXPECT_EQ(a.feasible_count, b.feasible_count);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
      const auto& x = a.scenarios[s];
      const auto& y = b.scenarios[s];
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(x.upper_bound, y.upper_bound);
      EXPECT_EQ(x.tune.found, y.tune.found);
      EXPECT_EQ(x.tune.alpha, y.tune.alpha);  // exact
      EXPECT_EQ(x.tune.beta, y.tune.beta);    // exact
      expect_identical(x.tune.best, y.tune.best,
                       suite.make(a.grid_case, x.etc_index, x.dag_index),
                       "tuned best");
    }
    EXPECT_EQ(a.t100.mean(), b.t100.mean());
    EXPECT_EQ(a.vs_bound.mean(), b.vs_bound.mean());
    EXPECT_EQ(a.alpha.mean(), b.alpha.mean());
    EXPECT_EQ(a.beta.mean(), b.beta.mean());
  }
}

TEST(Determinism, UpperBoundCachedMatchesUncached) {
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache cache(scenario);
    const auto plain = core::compute_upper_bound(scenario);
    const auto cached = core::compute_upper_bound(scenario, &cache);
    EXPECT_EQ(plain.bound, cached.bound);
    EXPECT_EQ(plain.tecc_seconds, cached.tecc_seconds);
    EXPECT_EQ(plain.cycles_used_seconds, cached.cycles_used_seconds);
    EXPECT_EQ(plain.energy_used, cached.energy_used);  // exact
    EXPECT_EQ(plain.cycle_limited, cached.cycle_limited);
    EXPECT_EQ(plain.energy_limited, cached.energy_limited);
  }
}

// The campaign engine's core promise: fanning the evaluation matrix out on
// the work-stealing pool (with the tuner sweep nested inside each cell)
// yields EXACTLY the serial matrix — cell for cell, scenario for scenario,
// down to the last double bit of the tuned outcomes and the Welford
// accumulators. Only measured wall time (and the value metric derived from
// it) may differ.
TEST(Determinism, ParallelMatrixMatchesSerial) {
  workload::SuiteParams suite_params;
  suite_params.num_tasks = 48;
  suite_params.num_etc = 2;
  suite_params.num_dag = 2;
  suite_params.master_seed = 777;
  const workload::ScenarioSuite suite(suite_params);
  const auto cases = {sim::GridCase::A, sim::GridCase::B};
  const std::vector<core::HeuristicKind> heuristics = {
      core::HeuristicKind::Slrh1, core::HeuristicKind::MaxMax};

  core::EvaluationParams serial_params;
  serial_params.tuner.coarse_step = 0.25;
  serial_params.tuner.fine_step = 0.0;
  serial_params.tuner.parallel = false;
  serial_params.parallel_cells = false;
  core::EvaluationParams parallel_params = serial_params;
  parallel_params.tuner.parallel = true;
  parallel_params.parallel_cells = true;

  const auto serial = core::evaluate_matrix(suite, cases, heuristics, serial_params);
  const auto parallel =
      core::evaluate_matrix(suite, cases, heuristics, parallel_params);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const auto& a = serial.cells[c];
    const auto& b = parallel.cells[c];
    SCOPED_TRACE("cell " + sim::to_string(a.grid_case) + "/" +
                 core::to_string(a.heuristic));
    EXPECT_EQ(a.grid_case, b.grid_case);
    EXPECT_EQ(a.heuristic, b.heuristic);
    EXPECT_EQ(a.feasible_count, b.feasible_count);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
      const auto& x = a.scenarios[s];
      const auto& y = b.scenarios[s];
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(x.etc_index, y.etc_index);
      EXPECT_EQ(x.dag_index, y.dag_index);
      EXPECT_EQ(x.upper_bound, y.upper_bound);
      EXPECT_EQ(x.tune.found, y.tune.found);
      EXPECT_EQ(x.tune.alpha, y.tune.alpha);  // exact
      EXPECT_EQ(x.tune.beta, y.tune.beta);    // exact
      expect_identical(x.tune.best, y.tune.best,
                       suite.make(a.grid_case, x.etc_index, x.dag_index),
                       "tuned best");
    }
    // Accumulators fold in suite order on both paths -> bit-identical.
    EXPECT_EQ(a.t100.mean(), b.t100.mean());
    EXPECT_EQ(a.vs_bound.mean(), b.vs_bound.mean());
    EXPECT_EQ(a.alpha.mean(), b.alpha.mean());
    EXPECT_EQ(a.beta.mean(), b.beta.mean());
  }
}

TEST(Determinism, TunerWithSharedCacheMatchesRunLocalCache) {
  // The tuner hands every weight-grid point one read-only ScenarioCache; a
  // solver that builds its own tables per run must tune to exactly the same
  // point with exactly the same schedules.
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  const core::ScenarioCache shared(scenario);
  core::TunerParams tuner;
  tuner.coarse_step = 0.25;  // small grid: this is a determinism test, not a sweep
  tuner.fine_step = 0.0;

  for (const auto kind : {core::HeuristicKind::Slrh3, core::HeuristicKind::MaxMax}) {
    SCOPED_TRACE(core::to_string(kind));
    const auto local_solver = [&](const core::Weights& w) {
      return core::run_heuristic(kind, scenario, w);
    };
    const auto shared_solver = [&](const core::Weights& w) {
      return core::run_heuristic(kind, scenario, w, {}, core::AetSign::Reward,
                                 nullptr, &shared);
    };

    const auto local = core::tune_weights(local_solver, tuner);
    const auto cached = core::tune_weights(shared_solver, tuner);
    EXPECT_EQ(local.found, cached.found);
    EXPECT_EQ(local.alpha, cached.alpha);
    EXPECT_EQ(local.beta, cached.beta);
    expect_identical(local.best, cached.best, scenario, "tuner best run");
    ASSERT_EQ(local.evaluated.size(), cached.evaluated.size());
    for (std::size_t i = 0; i < local.evaluated.size(); ++i) {
      EXPECT_EQ(local.evaluated[i].t100, cached.evaluated[i].t100) << "point " << i;
      EXPECT_EQ(local.evaluated[i].feasible, cached.evaluated[i].feasible)
          << "point " << i;
    }
  }
}

// --- the one pool builder vs the test-only scan oracle ---------------------
//
// drive_slrh is stopped at several mid-run end_clocks, so the schedule
// carries real placements, partly drained batteries and booked
// communication channels. At the next tick's clock every machine present is
// asked for its pool both ways: build_slrh_pool_batched (frontier + tables
// + gather rows + SoA kernel) and test::scan_pool_oracle (scan all |T|,
// on-demand derivations, per-candidate score_candidate). Membership, order,
// version, exact score and the rejection tallies must all agree: the live
// prefix and the ranked dead tail, merged in pool order, are the oracle's
// pool, and the split follows each slot's arrival bound.

/// Adds the number of pooled candidates compared to `candidates`.
void expect_pools_match_scan_oracle(const workload::Scenario& scenario,
                                    const core::SlrhParams& params,
                                    std::size_t& candidates) {
  const core::ScenarioCache cache(scenario);
  const core::ObjectiveTotals totals = core::objective_totals(scenario);
  // Stop points at fractions of the full run's makespan, on the dT grid.
  const Cycles aet = core::run_slrh(scenario, params).aet;
  for (const Cycles eighths : {1, 2, 4, 6}) {
    const Cycles stop = aet * eighths / 8 / params.dt * params.dt;
    SCOPED_TRACE("stop clock " + std::to_string(stop));
    auto schedule = core::make_schedule(scenario);
    core::MappingResult stats;
    core::drive_slrh(scenario, params, *schedule, 0, stop, stats);
    core::ReadyFrontier frontier(scenario, *schedule);
    frontier.advance_to(stop);
    core::CandidateBatch scratch;
    core::GatherRows rows(scenario.num_tasks(), scenario.num_machines());
    for (MachineId m = 0; m < static_cast<MachineId>(scenario.num_machines()); ++m) {
      if (!scenario.machine_available(m, stop)) continue;
      SCOPED_TRACE("machine " + std::to_string(m));
      core::SlrhPoolRejects rejects;
      core::SlrhPool split =
          core::build_slrh_pool_batched(scenario, cache, frontier, *schedule,
                                        params, totals, m, stop, rows, scratch,
                                        &rejects);
      core::rank_dead(split);
      const Cycles limit = stop + params.horizon;
      for (std::size_t k = 0; k < split.size(); ++k) {
        EXPECT_EQ(split.slots[k].arrival_lb > limit, k >= split.live) << "slot " << k;
        if (k >= split.live) {
          EXPECT_LE(split.dead_min_arrival, split.slots[k].arrival_lb);
        }
      }
      std::vector<core::SlrhPoolCandidate> pool;
      std::merge(split.slots.begin(),
                 split.slots.begin() + static_cast<std::ptrdiff_t>(split.live),
                 split.slots.begin() + static_cast<std::ptrdiff_t>(split.live),
                 split.slots.end(), std::back_inserter(pool), core::ranks_before);
      const test::ScanPool oracle =
          test::scan_pool_oracle(scenario, *schedule, params, totals, m, stop);
      EXPECT_EQ(rejects.unreleased, oracle.rejects.unreleased);
      EXPECT_EQ(rejects.assigned, oracle.rejects.assigned);
      EXPECT_EQ(rejects.parents, oracle.rejects.parents);
      EXPECT_EQ(rejects.energy, oracle.rejects.energy);
      ASSERT_EQ(pool.size(), oracle.pool.size());
      for (std::size_t k = 0; k < pool.size(); ++k) {
        EXPECT_EQ(pool[k].task, oracle.pool[k].task) << "slot " << k;
        EXPECT_EQ(pool[k].version, oracle.pool[k].version) << "slot " << k;
        EXPECT_EQ(pool[k].score, oracle.pool[k].score) << "slot " << k;  // exact
      }
      candidates += pool.size();
    }
  }
}

TEST(Determinism, BatchedPoolMatchesScanOracle) {
  std::size_t candidates = 0;
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      SCOPED_TRACE(to_string(variant));
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      expect_pools_match_scan_oracle(scenario, params, candidates);
    }
  }
  // Departure window: machine 1 vanishes at tau/8 with work booked on it.
  // Every third task is pinned to its secondary version (the churn degrade
  // mask), which both builders must honour.
  const auto departed = test::one_departure_scenario();
  std::vector<std::uint8_t> pinned(departed.num_tasks(), 0);
  for (std::size_t t = 0; t < pinned.size(); t += 3) pinned[t] = 1;
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    for (const bool degrade : {false, true}) {
      SCOPED_TRACE(to_string(variant) + (degrade ? " degrade mask" : ""));
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      params.secondary_only = degrade ? &pinned : nullptr;
      expect_pools_match_scan_oracle(departed, params, candidates);
    }
  }
  EXPECT_GT(candidates, 0u);  // the stop points must land on live pools
}

// --- ScenarioCache --------------------------------------------------------
//
// The cache stores the ETC seconds and the energy need and derives the rest
// on every read; each value must be the uncached derivation's, bit for bit.

// Every value the cache serves, compared bit for bit with the uncached
// derivation it stands for, machines visited from `first` on. Returns the
// number of mismatches (reads only, so threads may share the cache).
std::size_t cache_mismatches(const core::ScenarioCache& cache,
                             const workload::Scenario& scenario, MachineId first) {
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  std::size_t mismatches = 0;
  for (MachineId step = 0; step < num_machines; ++step) {
    const auto m = static_cast<MachineId>((step + first) % num_machines);
    for (TaskId t = 0; t < num_tasks; ++t) {
      for (const VersionKind v : {VersionKind::Primary, VersionKind::Secondary}) {
        const double exec_energy = core::exec_energy(scenario, t, m, v);
        mismatches += cache.exec_cycles(t, m, v) != scenario.exec_cycles(t, m, v);
        mismatches += cache.exec_energy(t, m, v) != exec_energy;  // exact
        mismatches += cache.energy_need(t, m, v) !=
                      exec_energy + core::worst_case_outgoing_energy(scenario, t, m, v);
      }
    }
  }
  for (TaskId t = 0; t < num_tasks; ++t) {
    for (const VersionKind v : {VersionKind::Primary, VersionKind::Secondary}) {
      Cycles min_exec = std::numeric_limits<Cycles>::max();
      for (MachineId m = 0; m < num_machines; ++m) {
        min_exec = std::min(min_exec, scenario.exec_cycles(t, m, v));
      }
      mismatches += cache.min_exec_cycles(t, v) != min_exec;
    }
  }
  return mismatches;
}

// The stored and derived values against the uncached derivations they
// replace, entry by entry and bit for bit. Departure windows must not
// matter: the cache is pure scenario data.
TEST(ScenarioCache, TablesMatchUncachedDerivations) {
  auto fixtures = paper_shape_fixtures();
  fixtures.push_back(test::one_departure_scenario());
  for (const auto& scenario : fixtures) {
    const core::ScenarioCache cache(scenario);
    EXPECT_EQ(cache_mismatches(cache, scenario, 0), 0u);
    EXPECT_EQ(cache.columns_built(), scenario.num_machines());
  }
}

// 24 B per (task, machine) pair — the ETC seconds plus both versions'
// energy need — 16 B per task for the two minimum execution cycles, and
// 8 B per machine for its compute power. Nothing else.
TEST(ScenarioCache, BytesPerPair) {
  for (const auto& [tasks, fast, slow] :
       {std::tuple{std::size_t{48}, std::size_t{2}, std::size_t{2}},
        std::tuple{std::size_t{97}, std::size_t{3}, std::size_t{2}},
        std::tuple{std::size_t{256}, std::size_t{1}, std::size_t{7}}}) {
    const std::size_t t = tasks;
    const std::size_t m = fast + slow;
    const auto scenario = test::make_scenario(
        sim::GridConfig::make(fast, slow), t, {},
        std::vector<std::vector<double>>(t, std::vector<double>(m, 10.0)), 100000);
    const core::ScenarioCache cache(scenario);
    EXPECT_EQ(cache.memory_bound_bytes(), 24 * t * m + 16 * t + 8 * m)
        << t << "x" << m;
  }
}

// The cache keeps no reference to the scenario it was built from.
TEST(ScenarioCache, OutlivesItsScenario) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::C, 40);
  auto copy = std::make_unique<workload::Scenario>(scenario);
  const core::ScenarioCache cache(*copy);
  copy.reset();
  EXPECT_EQ(cache_mismatches(cache, scenario, 0), 0u);
}

// TSan coverage: four threads read every accessor of one shared cache at
// once, each starting at a different machine, and compare each value with
// the uncached derivation. The cache has no lazily filled state, so this
// must be race-free and exact.
TEST(ScenarioCache, ConcurrentReadersMatchUncached) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::B, 48);
  const core::ScenarioCache cache(scenario);
  std::vector<std::thread> readers;
  std::atomic<std::size_t> mismatches{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      mismatches.fetch_add(cache_mismatches(cache, scenario, static_cast<MachineId>(r)),
                           std::memory_order_relaxed);
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-tick pool reuse: the skip verdicts are a pure acceleration of the
// per-tick machine sweep — they must leave every schedule bit-identical to
// the rebuild-everything sweep, with recorder AND ledger attached (a skipped
// scope is one that would have committed nothing, so the observers must not
// be able to tell the difference either).

core::SlrhParams serial_sweep_params(core::SlrhVariant variant) {
  core::SlrhParams params;
  params.variant = variant;
  params.weights = core::Weights::make(0.6, 0.3);
  params.pool_reuse = false;
  return params;
}

TEST(Determinism, SlrhPoolReuseMatchesRebuild) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      auto params = serial_sweep_params(variant);
      const auto serial = core::run_slrh(scenario, params);

      obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
      obs::TaskLedger ledger(scenario.num_tasks());
      params.recorder = &recorder;
      params.ledger = &ledger;
      params.pool_reuse = true;
      const auto reused = core::run_slrh(scenario, params);

      expect_identical(serial, reused, scenario, to_string(variant).c_str());
      // A skipped scope is one the serial path would have built exactly one
      // pool for and committed nothing from, so the forgone builds are
      // countable: built + reused must equal the serial build count.
      EXPECT_EQ(reused.pools_built + reused.pools_reused, serial.pools_built);
      EXPECT_GT(reused.pools_reused, 0u);
    }
  }
}

TEST(Determinism, ChurnPoolReuseMatchesRebuild) {
  const auto scenario = test::one_departure_scenario();
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    auto params = serial_sweep_params(variant);
    const auto serial = core::run_slrh_with_churn(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    obs::TaskLedger ledger(scenario.num_tasks());
    params.recorder = &recorder;
    params.ledger = &ledger;
    params.pool_reuse = true;
    const auto reused = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(serial.departures_processed, 0u);
    EXPECT_EQ(reused.departures_processed, serial.departures_processed);
    EXPECT_EQ(reused.orphaned, serial.orphaned);
    EXPECT_EQ(reused.invalidated, serial.invalidated);
    EXPECT_EQ(reused.energy_forfeited, serial.energy_forfeited);  // exact
    expect_identical(serial.result, reused.result, scenario,
                     to_string(variant).c_str());
    EXPECT_EQ(reused.result.pools_built + reused.result.pools_reused,
              serial.result.pools_built);
    EXPECT_GT(reused.result.pools_reused, 0u);
  }
}

}  // namespace
}  // namespace ahg
