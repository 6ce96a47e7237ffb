// google-benchmark microbenchmarks of the scheduling kernels that dominate
// heuristic execution time: timeline insertion / earliest-fit search,
// candidate-pool construction, objective scoring, and placement planning.
// These are the operations a hardware (DSP/FPGA) implementation of SLRH
// would pipeline — the paper's §II motivation for the algorithm family.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/churn.hpp"
#include "core/feasibility.hpp"
#include "core/maxmax.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/slrh.hpp"
#include "sim/timeline.hpp"
#include "support/flight_recorder.hpp"
#include "support/rng.hpp"
#include "support/task_ledger.hpp"
#include "support/thread_pool.hpp"
#include "workload/dynamics.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;

void BM_TimelineInsertSequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Timeline tl;
    for (std::size_t i = 0; i < n; ++i) {
      tl.insert(static_cast<Cycles>(i) * 20, 10);
    }
    benchmark::DoNotOptimize(tl.ready_time());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimelineInsertSequential)->Arg(64)->Arg(256)->Arg(1024);

void BM_TimelineEarliestFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Timeline tl;
  Rng rng(7);
  Cycles cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cursor += rng.uniform_int(1, 30);
    const Cycles dur = rng.uniform_int(1, 20);
    tl.insert(cursor, dur);
    cursor += dur;
  }
  Cycles probe = 0;
  for (auto _ : state) {
    probe = (probe + 97) % cursor;
    benchmark::DoNotOptimize(tl.earliest_fit(probe, 25));
  }
}
BENCHMARK(BM_TimelineEarliestFit)->Arg(64)->Arg(256)->Arg(1024);

// --- earliest fit: ordered hole index on a dense timeline ----------------
//
// The dense timeline (tight gaps, mostly too small for the probe duration)
// is the adversarial shape: a linear walk would inspect every gap until far
// into the timeline; the hole index skips whole chunks via their maxima.

sim::Timeline dense_timeline(std::size_t n) {
  sim::Timeline tl;
  Rng rng(7);
  Cycles cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Gaps of 1..4 cycles; one roomy gap every 512 intervals.
    cursor += i % 512 == 511 ? 60 : rng.uniform_int(1, 4);
    const Cycles dur = rng.uniform_int(1, 20);
    tl.insert(cursor, dur);
    cursor += dur;
  }
  return tl;
}

void BM_EarliestFit_HoleIndex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Timeline tl = dense_timeline(n);
  const Cycles horizon = tl.ready_time();
  Cycles probe = 0;
  for (auto _ : state) {
    probe = (probe + 97) % horizon;
    benchmark::DoNotOptimize(tl.earliest_fit(probe, 50));
  }
}
BENCHMARK(BM_EarliestFit_HoleIndex)->Arg(256)->Arg(1024)->Arg(8192);

// Mid-timeline mutation: the cost that used to be O(n) per insert under the
// flat suffix rebuild and is O(chunk) under the chunked structure. A steady
// insert/erase cycle at the midpoint of an n-interval timeline; sublinear
// growth 8192 -> 65536 is the acceptance signal (the flat rebuild grew 8x).
void BM_TimelineInsert_Mid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Timeline tl;
  for (std::size_t i = 0; i < n; ++i) {
    tl.insert(static_cast<Cycles>(i) * 40, 10);
  }
  const Cycles mid = (static_cast<Cycles>(n) / 2) * 40 + 20;  // interior gap
  for (auto _ : state) {
    tl.insert(mid, 10);
    tl.erase(mid, 10);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_TimelineInsert_Mid)->Arg(8192)->Arg(65536);

workload::Scenario bench_scenario(std::size_t num_tasks) {
  workload::SuiteParams params;
  params.num_tasks = num_tasks;
  params.num_etc = 1;
  params.num_dag = 1;
  params.master_seed = 99;
  return workload::ScenarioSuite(params).make(sim::GridCase::A, 0, 0);
}

void BM_PoolAdmissionScan(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<std::size_t>(state.range(0)));
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  for (auto _ : state) {
    std::size_t admissible = 0;
    for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
      if (core::slrh_pool_admissible(scenario, schedule, static_cast<TaskId>(i), 0)) {
        ++admissible;
      }
    }
    benchmark::DoNotOptimize(admissible);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PoolAdmissionScan)->Arg(256)->Arg(1024);

// --- admission energy: derived vs table lookup ----------------------------
//
// The admission "energy need" (secondary execution + worst-case outgoing
// communication) is pure scenario data. Computed re-walks the children and
// the grid's worst link per query; Cached reads the |T|x|M|x2 table.

void BM_EnergyNeed_Computed(benchmark::State& state) {
  const auto scenario = bench_scenario(256);
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  TaskId task = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::version_fits_energy(
        scenario, schedule, task, /*machine=*/0, VersionKind::Secondary));
    task = static_cast<TaskId>((task + 1) % num_tasks);
  }
}
BENCHMARK(BM_EnergyNeed_Computed);

void BM_EnergyNeed_Cached(benchmark::State& state) {
  const auto scenario = bench_scenario(256);
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  const core::ScenarioCache cache(scenario);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  TaskId task = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::version_fits_energy(
        cache, schedule, task, /*machine=*/0, VersionKind::Secondary));
    task = static_cast<TaskId>((task + 1) % num_tasks);
  }
}
BENCHMARK(BM_EnergyNeed_Cached);

// --- pool scoring: per-candidate scalar chain vs the fused gather ---------
//
// Score every ready task against one machine, excluding the pool sort
// (identical on both sides) so the ratio is gather+score work alone.
// Independent tasks make the whole task set ready at clock 0 — the
// |T|=100k regime's pool shape. The scalar side is the per-candidate
// admission check + two score_candidate chains per task; the batched side
// is the pool build's CandidateBatch::start + gather_candidates over the
// same ready span.

workload::Scenario all_ready_scenario(std::size_t num_tasks) {
  auto grid = sim::GridConfig::make(4, 4);
  auto etc = workload::generate_etc({}, num_tasks,
                                    workload::machine_classes(grid), 99);
  workload::Scenario scenario{std::move(grid),
                              workload::Dag(num_tasks),
                              std::move(etc),
                              workload::DataSizes{},
                              workload::VersionModel{},
                              /*tau=*/cycles_from_seconds(34075.0 *
                                                          static_cast<double>(num_tasks) /
                                                          1024.0)};
  scenario.validate();
  return scenario;
}

std::vector<TaskId> all_tasks(std::size_t num_tasks) {
  std::vector<TaskId> ready(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) ready[i] = static_cast<TaskId>(i);
  return ready;
}

double per_candidate_score_kernel(const workload::Scenario& scenario,
                           const core::ScenarioCache& cache,
                           const sim::Schedule& schedule,
                           const core::Weights& weights,
                           const core::ObjectiveTotals& totals,
                           std::span<const TaskId> ready) {
  double acc = 0.0;
  for (const TaskId task : ready) {
    if (!core::version_fits_energy(cache, schedule, task, /*machine=*/0,
                                   VersionKind::Secondary)) {
      continue;
    }
    const double secondary = core::score_candidate(
        cache, scenario, schedule, weights, totals, task, 0,
        VersionKind::Secondary, /*earliest=*/0);
    double best = secondary;
    if (core::version_fits_energy(cache, schedule, task, 0, VersionKind::Primary)) {
      const double primary = core::score_candidate(
          cache, scenario, schedule, weights, totals, task, 0,
          VersionKind::Primary, /*earliest=*/0);
      if (primary >= secondary) best = primary;
    }
    acc += best;
  }
  return acc;
}

double batched_score_kernel(const workload::Scenario& scenario,
                            const core::ScenarioCache& cache,
                            const sim::Schedule& schedule,
                            const core::Weights& weights,
                            const core::ObjectiveTotals& totals,
                            std::span<const TaskId> ready,
                            core::GatherRows& rows, core::CandidateBatch& batch) {
  batch.start(schedule, /*machine=*/0, /*earliest=*/0, weights, totals);
  core::gather_candidates(cache, scenario, schedule, ready, nullptr, rows, batch);
  double acc = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) acc += batch.slots[i].score;
  return acc;
}

void BM_ScoreBatch_Scalar(benchmark::State& state) {
  const auto scenario = all_ready_scenario(static_cast<std::size_t>(state.range(0)));
  const core::ScenarioCache cache(scenario);
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  const auto totals = core::objective_totals(scenario);
  const auto weights = core::Weights::make(0.6, 0.3);
  const auto ready = all_tasks(scenario.num_tasks());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        per_candidate_score_kernel(scenario, cache, schedule, weights, totals, ready));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreBatch_Scalar)->Arg(1024)->Arg(16384);

void BM_ScoreBatch_Batched(benchmark::State& state) {
  const auto scenario = all_ready_scenario(static_cast<std::size_t>(state.range(0)));
  const core::ScenarioCache cache(scenario);
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  const auto totals = core::objective_totals(scenario);
  const auto weights = core::Weights::make(0.6, 0.3);
  const auto ready = all_tasks(scenario.num_tasks());
  core::GatherRows rows(scenario.num_tasks(), scenario.num_machines());
  core::CandidateBatch batch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batched_score_kernel(scenario, cache, schedule, weights,
                                                  totals, ready, rows, batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreBatch_Batched)->Arg(1024)->Arg(16384);

void BM_ScoreCandidate(benchmark::State& state) {
  const auto scenario = bench_scenario(256);
  sim::Schedule schedule(scenario.grid, scenario.num_tasks());
  const auto totals = core::objective_totals(scenario);
  const auto weights = core::Weights::make(0.6, 0.3);
  // Score root tasks (parents trivially satisfied).
  const auto roots = scenario.dag.roots();
  std::size_t k = 0;
  for (auto _ : state) {
    const TaskId task = roots[k++ % roots.size()];
    benchmark::DoNotOptimize(core::score_candidate(scenario, schedule, weights, totals,
                                                   task, 0, VersionKind::Primary, 0));
  }
}
BENCHMARK(BM_ScoreCandidate);

// Plan the transfer path: half the DAG is committed in topological order,
// round-robin over the machines, and each probe is a ready task with at
// least two data-carrying parents, planned on a machine that hosts none of
// them, so at least two inputs are transfers, each fitted around the others.
void BM_PlanPlacement(benchmark::State& state) {
  const auto scenario = bench_scenario(1024);
  const auto schedule = core::make_schedule(scenario);
  const auto order = scenario.dag.topological_order();
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    core::commit_placement(
        scenario, *schedule,
        core::plan_placement(scenario, *schedule, order[i],
                             static_cast<MachineId>(i % scenario.num_machines()),
                             VersionKind::Primary, 0));
  }
  struct Probe {
    TaskId task;
    MachineId machine;
  };
  std::vector<Probe> probes;
  for (std::size_t i = order.size() / 2; i < order.size(); ++i) {
    const TaskId task = order[i];
    std::vector<char> hosts(scenario.num_machines(), 0);
    std::size_t carrying = 0;
    bool ready = true;
    for (const TaskId parent : scenario.dag.parents(task)) {
      if (!schedule->is_assigned(parent)) {
        ready = false;
        break;
      }
      const auto& pa = schedule->assignment(parent);
      hosts[static_cast<std::size_t>(pa.machine)] = 1;
      if (scenario.edge_bits(parent, task, pa.version) > 0.0) ++carrying;
    }
    if (!ready || carrying < 2) continue;
    for (std::size_t m = 0; m < hosts.size(); ++m) {
      if (hosts[m] == 0) {
        probes.push_back({task, static_cast<MachineId>(m)});
        break;
      }
    }
  }
  if (probes.empty()) {
    state.SkipWithError("no multi-parent probe task");
    return;
  }
  std::size_t k = 0;
  std::size_t comms = 0;
  for (auto _ : state) {
    const Probe& probe = probes[k++ % probes.size()];
    const auto plan = core::plan_placement(scenario, *schedule, probe.task,
                                           probe.machine, VersionKind::Primary, 0);
    comms += plan.comms.size();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["probes"] = static_cast<double>(probes.size());
  state.counters["comms_per_plan"] =
      static_cast<double>(comms) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PlanPlacement);

// --- machine sweep: rebuild-everything vs cross-tick reuse ----------------
//
// Whole-run V3 comparison: Serial rebuilds every pool (pool_reuse off, the
// determinism reference), Reuse skips scopes through the cross-tick verdicts.
// V3 is the sweep-bound variant (it rebuilds the pool after every commit),
// so the ratio here is the reuse share of the end-to-end speedup bench_scale
// measures.

core::SlrhParams sweep_bench_params(bool reuse) {
  core::SlrhParams params;
  params.variant = core::SlrhVariant::V3;
  params.weights = core::Weights::make(0.7, 0.25);
  params.pool_reuse = reuse;
  return params;
}

void BM_Sweep_Serial(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<std::size_t>(state.range(0)));
  const auto params = sweep_bench_params(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_slrh(scenario, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sweep_Serial)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_Sweep_Reuse(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<std::size_t>(state.range(0)));
  const auto params = sweep_bench_params(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_slrh(scenario, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sweep_Reuse)->Arg(1024)->Unit(benchmark::kMillisecond);

// Telemetry-overhead guard for the SLRH inner loop: arg 0 runs the null-sink
// fast path (the contract: same instructions as before the observability
// layer existed), arg 1 attaches a metrics-only sink (phase histograms, no
// events). Comparing the two rates bounds the cost of enabling phase timing;
// the null-sink run itself is what the <2 % inner-loop overhead budget is
// measured against.
void BM_SlrhInnerLoop(benchmark::State& state) {
  const auto scenario = bench_scenario(256);
  const bool with_metrics = state.range(0) != 0;
  obs::MetricsRegistry metrics;
  obs::ForwardSink sink(&metrics, nullptr);
  core::SlrhParams params;
  params.weights = core::Weights::make(0.7, 0.25);
  params.sink = with_metrics ? &sink : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_slrh(scenario, params));
  }
  state.SetLabel(with_metrics ? "metrics_sink" : "null_sink");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_SlrhInnerLoop)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One overhead guard's measurement: each side's fastest run and the median
/// of the per-rep paired on/off ratios.
struct PairedOverhead {
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  double ratio = 1.0;
};

/// Run `reps` back-to-back (off, on) pairs; each callable runs once and
/// returns its own elapsed seconds, so set-up stays outside its timer. The
/// gated ratio is the MEDIAN of the per-pair ratios: host drift (a noisy
/// shared core slowing one stretch of the bench) hits both sides of a pair
/// equally and the median discards the spiked pairs, where a ratio of
/// independent min-of-N times wandered ±10% on a loaded host. Which side
/// runs first alternates, so first-run warm-up or scheduler bias cancels
/// across pairs instead of tilting the ratio.
template <typename Off, typename On>
PairedOverhead paired_overhead(int reps, Off&& run_off, On&& run_on) {
  PairedOverhead out;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const bool on_first = (rep % 2) != 0;
    const double first = on_first ? run_on() : run_off();
    const double second = on_first ? run_off() : run_on();
    const double off_elapsed = on_first ? second : first;
    const double on_elapsed = on_first ? first : second;
    out.off_seconds = rep == 0 ? off_elapsed : std::min(out.off_seconds, off_elapsed);
    out.on_seconds = rep == 0 ? on_elapsed : std::min(out.on_seconds, on_elapsed);
    if (off_elapsed > 0.0) ratios.push_back(on_elapsed / off_elapsed);
  }
  if (!ratios.empty()) {
    const auto mid =
        static_cast<std::vector<double>::difference_type>(ratios.size() / 2);
    std::nth_element(ratios.begin(), ratios.begin() + mid, ratios.end());
    out.ratio = ratios[ratios.size() / 2];
  }
  return out;
}

/// Wall seconds of one call of `fn`, its result discarded.
template <typename F>
double timed_seconds(F&& fn) {
  const Stopwatch timer;
  static_cast<void>(fn());
  return timer.seconds();
}

// End-to-end record for the SLRH inner loop: run each variant over the same
// scenario and dump the wall times as BENCH_inner_loop.json (the
// *_fast_seconds keys keep their historical name). Schedule bit-identity is
// pinned by tests/test_golden_schedules.cpp, not here.
void write_inner_loop_report() {
  bench::BenchReport report("inner_loop");
  const auto scenario = bench_scenario(1024);
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.7, 0.25);
    const std::string name = core::to_string(variant);
    const auto fast = report.timed_section(
        name + "_fast", [&] { return core::run_slrh(scenario, params); });
    std::cout << name << ": " << fast.wall_seconds << " s\n";
  }

  // Score-kernel record at |T|=1024: the scalar per-candidate chain vs the
  // pool build's fused gather over an all-ready pool, sort excluded from
  // both sides (it is identical work and would dilute the kernel ratio).
  // Min-of-N absorbs scheduler noise; the speedup gauge is the
  // before/after artifact the gate tracks (its committed tolerance is wide
  // — machine-dependent).
  {
    constexpr int kReps = 15;
    const auto pool_scenario = all_ready_scenario(1024);
    const core::ScenarioCache cache(pool_scenario);
    sim::Schedule schedule(pool_scenario.grid, pool_scenario.num_tasks());
    const auto totals = core::objective_totals(pool_scenario);
    const auto weights = core::Weights::make(0.6, 0.3);
    const auto ready = all_tasks(pool_scenario.num_tasks());
    core::GatherRows rows(pool_scenario.num_tasks(), pool_scenario.num_machines());
    core::CandidateBatch batch;
    double scalar_seconds = 0.0;
    double batched_seconds = 0.0;
    double scalar_sum = 0.0;
    double batched_sum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const Stopwatch scalar_timer;
      scalar_sum = per_candidate_score_kernel(pool_scenario, cache, schedule, weights,
                                       totals, ready);
      const double scalar_elapsed = scalar_timer.seconds();
      scalar_seconds =
          rep == 0 ? scalar_elapsed : std::min(scalar_seconds, scalar_elapsed);

      const Stopwatch batched_timer;
      batched_sum = batched_score_kernel(pool_scenario, cache, schedule, weights,
                                         totals, ready, rows, batch);
      const double batched_elapsed = batched_timer.seconds();
      batched_seconds =
          rep == 0 ? batched_elapsed : std::min(batched_seconds, batched_elapsed);
    }
    const double speedup =
        batched_seconds > 0.0 ? scalar_seconds / batched_seconds : 0.0;
    report.metrics().gauge("bench.score_kernel_scalar_seconds").set(scalar_seconds);
    report.metrics().gauge("bench.score_kernel_batched_seconds").set(batched_seconds);
    report.metrics().gauge("bench.score_kernel_speedup").set(speedup);
    // The kernels agree bit for bit (the determinism suite asserts this
    // properly); the counter records it survived this run too.
    report.metrics()
        .counter("bench.score_kernel_sums_identical")
        .add(scalar_sum == batched_sum ? 1 : 0);
    std::cout << "score kernel @1024: scalar " << scalar_seconds << " s, batched "
              << batched_seconds << " s (" << speedup << "x)\n";
  }

  // Max-Max and SLRH-3 records at the perfbench wide-dag shape (2048x16,
  // ~32 levels, no churn), min-of-N whole runs.
  const auto wide = bench::make_scale_scenario(2048, 16, 20040426);
  const core::ScenarioCache wide_cache(wide);
  // Max-Max: the candidate table's end-to-end run. t100 and the assigned
  // count are two-sided, so a schedule change trips the gate too; so is the
  // table's exact work (entries priced, from one more run with a metrics
  // sink), so re-pricing entries a commit cannot move trips it as well.
  {
    constexpr int kReps = 5;
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &wide_cache;
    double run_seconds = 0.0;
    core::MappingResult result;
    for (int rep = 0; rep < kReps; ++rep) {
      const Stopwatch timer;
      result = core::run_maxmax(wide, params);
      const double elapsed = timer.seconds();
      run_seconds = rep == 0 ? elapsed : std::min(run_seconds, elapsed);
    }
    report.metrics().gauge("bench.maxmax_run_seconds").set(run_seconds);
    report.metrics().counter("bench.maxmax_t100").add(result.t100);
    report.metrics().counter("bench.maxmax_assigned").add(result.assigned);
    obs::MetricsRegistry metrics;
    obs::ForwardSink sink(&metrics, nullptr);
    params.sink = &sink;
    core::run_maxmax(wide, params);
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    const auto* priced = snapshot.find_counter("maxmax.entries_priced");
    const std::uint64_t entries_priced = priced != nullptr ? priced->value : 0;
    report.metrics().counter("bench.maxmax_entries_priced").add(entries_priced);
    std::cout << "maxmax @2048x16: " << run_seconds << " s (t100 " << result.t100
              << ", assigned " << result.assigned << ", entries priced "
              << entries_priced << ")\n";
  }
  // SLRH-3: the pool build over the activation index. Pools built and
  // skipped are exact and two-sided: a pool-build change that moves a
  // single skip verdict trips the gate.
  {
    constexpr int kReps = 5;
    core::SlrhParams params;
    params.variant = core::SlrhVariant::V3;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &wide_cache;
    double run_seconds = 0.0;
    core::MappingResult result;
    for (int rep = 0; rep < kReps; ++rep) {
      const Stopwatch timer;
      result = core::run_slrh(wide, params);
      const double elapsed = timer.seconds();
      run_seconds = rep == 0 ? elapsed : std::min(run_seconds, elapsed);
    }
    report.metrics().gauge("bench.slrh3_wide_run_seconds").set(run_seconds);
    report.metrics().counter("bench.slrh3_wide_pools_built").add(result.pools_built);
    report.metrics().counter("bench.slrh3_wide_pools_reused").add(result.pools_reused);
    std::cout << "slrh3 @2048x16: " << run_seconds << " s (pools built "
              << result.pools_built << ", reused " << result.pools_reused << ")\n";
  }

  // Churn-recovery record at the perfbench churn-recovery shape (2048x16,
  // 1.5 departures per machine): SLRH-3 with Remap, min-of-N. The
  // invalidated / orphaned / t100 counters are exact, so a recovery change
  // that moves a single decision trips the gate too.
  {
    constexpr int kReps = 5;
    auto churny = bench::make_scale_scenario(2048, 16, 20040426);
    workload::ChurnParams churn;
    churn.departures_per_machine = 1.5;
    churny.machine_windows = workload::generate_machine_churn(
                                 churn, churny.num_machines(), churny.tau, 20040426)
                                 .windows;
    const core::ScenarioCache cache(churny);
    core::SlrhParams params;
    params.variant = core::SlrhVariant::V3;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &cache;
    double run_seconds = 0.0;
    core::ChurnRunOutcome outcome;
    for (int rep = 0; rep < kReps; ++rep) {
      const Stopwatch timer;
      outcome = core::run_slrh_with_churn(churny, params, core::ChurnRecovery::Remap);
      const double elapsed = timer.seconds();
      run_seconds = rep == 0 ? elapsed : std::min(run_seconds, elapsed);
    }
    report.metrics().gauge("bench.churn_run_seconds").set(run_seconds);
    report.metrics().counter("bench.churn_invalidated").add(outcome.invalidated);
    report.metrics().counter("bench.churn_orphaned").add(outcome.orphaned);
    report.metrics().counter("bench.churn_t100").add(outcome.result.t100);
    std::cout << "churn @2048x16 (SLRH-3, remap): " << run_seconds << " s ("
              << outcome.departures_processed << " departures, orphaned "
              << outcome.orphaned << ", invalidated " << outcome.invalidated
              << ", t100 " << outcome.result.t100 << ")\n";
  }

  // Earliest-fit record: the hole index over a dense 8192-interval timeline
  // (the |T|=100k placement regime).
  {
    constexpr int kReps = 15;
    constexpr int kProbes = 4096;
    const sim::Timeline tl = dense_timeline(8192);
    const Cycles horizon = tl.ready_time();
    double index_seconds = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Cycles probe = 0;
      Cycles index_acc = 0;
      const Stopwatch index_timer;
      for (int q = 0; q < kProbes; ++q) {
        probe = (probe + 97) % horizon;
        index_acc += tl.earliest_fit(probe, 50);
      }
      const double index_elapsed = index_timer.seconds();
      benchmark::DoNotOptimize(index_acc);
      index_seconds =
          rep == 0 ? index_elapsed : std::min(index_seconds, index_elapsed);
    }
    report.metrics().gauge("bench.earliest_fit_index_seconds").set(index_seconds);
    std::cout << "earliest fit @8192: " << index_seconds << " s\n";
  }

  // Cross-tick reuse record at the smoke shape, gated per push: the V3 sweep
  // rebuilding every pool (serial reference) against the same sweep with
  // reuse on. Min-of-N whole runs; the speedup gauge is what the gate watches.
  {
    constexpr int kReps = 5;
    const auto params_serial = sweep_bench_params(false);
    const auto params_reuse = sweep_bench_params(true);
    double serial_seconds = 0.0;
    double reuse_seconds = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      const Stopwatch serial_timer;
      const auto serial = core::run_slrh(scenario, params_serial);
      const double serial_elapsed = serial_timer.seconds();
      serial_seconds =
          rep == 0 ? serial_elapsed : std::min(serial_seconds, serial_elapsed);

      const Stopwatch reuse_timer;
      const auto reuse = core::run_slrh(scenario, params_reuse);
      const double reuse_elapsed = reuse_timer.seconds();
      reuse_seconds =
          rep == 0 ? reuse_elapsed : std::min(reuse_seconds, reuse_elapsed);

      identical = identical && serial.t100 == reuse.t100 &&
                  serial.tec == reuse.tec && serial.aet == reuse.aet;
    }
    report.metrics().gauge("bench.sweep_serial_seconds").set(serial_seconds);
    report.metrics().gauge("bench.sweep_reuse_seconds").set(reuse_seconds);
    report.metrics()
        .gauge("bench.sweep_reuse_speedup")
        .set(reuse_seconds > 0.0 ? serial_seconds / reuse_seconds : 0.0);
    report.metrics()
        .counter("bench.sweep_schedules_identical")
        .add(identical ? 1 : 0);
    std::cout << "sweep @1024 (V3): serial " << serial_seconds << " s, reuse "
              << reuse_seconds << " s ("
              << (reuse_seconds > 0.0 ? serial_seconds / reuse_seconds : 0.0)
              << "x reuse)\n";
  }

  // Flight-recorder overhead guard (budget: <= 3% on run_slrh at |T|=1024),
  // gated two-sided on the paired median ratio.
  constexpr int kOverheadReps = 101;
  core::SlrhParams overhead_params;
  overhead_params.weights = core::Weights::make(0.7, 0.25);
  static_cast<void>(core::run_slrh(scenario, overhead_params));  // warm caches/pool
  const auto run_off = [&] {
    return timed_seconds([&] { return core::run_slrh(scenario, overhead_params); });
  };
  {
    // One recorder reused across reps: after the first run the ring has
    // wrapped and record() is allocation-free, so the ratio measures the
    // steady-state overhead of an attached recorder (the cold first run is
    // ring warm-up, not recording cost).
    obs::FlightRecorder recorder;
    std::uint64_t frames = 0;
    const auto overhead = paired_overhead(kOverheadReps, run_off, [&] {
      const std::uint64_t frames_before = recorder.frames_recorded();
      core::SlrhParams params = overhead_params;
      params.recorder = &recorder;
      const double elapsed =
          timed_seconds([&] { return core::run_slrh(scenario, params); });
      frames = recorder.frames_recorded() - frames_before;
      return elapsed;
    });
    report.metrics().gauge("bench.recorder_off_seconds").set(overhead.off_seconds);
    report.metrics().gauge("bench.recorder_on_seconds").set(overhead.on_seconds);
    report.metrics().gauge("bench.recorder_overhead_ratio").set(overhead.ratio);
    report.metrics().counter("bench.recorder_frames").add(frames);
    std::cout << "recorder: off " << overhead.off_seconds << " s, on "
              << overhead.on_seconds << " s (median " << overhead.ratio << "x, "
              << frames << " frames)\n";
  }

  // Task-ledger overhead guard (ISSUE: <= 1.05x on run_slrh at |T|=1024).
  // A FRESH ledger per on-run — unlike the recorder's ring there is no
  // steady state to reuse; a second run on the same ledger would take the
  // on_pooled fast path everywhere and undercount. Construction happens
  // outside the timer so only the recording cost is timed.
  {
    std::uint64_t transitions = 0;
    const auto overhead = paired_overhead(kOverheadReps, run_off, [&] {
      obs::TaskLedger ledger(scenario.num_tasks());
      core::SlrhParams params = overhead_params;
      params.ledger = &ledger;
      const double elapsed =
          timed_seconds([&] { return core::run_slrh(scenario, params); });
      transitions = ledger.transitions_recorded();
      return elapsed;
    });
    report.metrics().gauge("bench.ledger_off_seconds").set(overhead.off_seconds);
    report.metrics().gauge("bench.ledger_on_seconds").set(overhead.on_seconds);
    report.metrics().gauge("bench.ledger_overhead_ratio").set(overhead.ratio);
    report.metrics().counter("bench.ledger_transitions").add(transitions);
    std::cout << "ledger: off " << overhead.off_seconds << " s, on "
              << overhead.on_seconds << " s (median " << overhead.ratio << "x, "
              << transitions << " transitions)\n";
  }

  // Runtime-profiler overhead guard (ISSUE: <= 1.05x on run_slrh at
  // |T|=1024, gated as an UPPER bound — see bench/baselines). One profiler
  // reused across reps, like the recorder: the rings overwrite in place, so
  // the steady-state cost of timed run slices + idle intervals on every pool
  // pop is what's measured, not ring allocation.
  {
    obs::RuntimeProfiler profiler(global_pool().size());
    std::uint64_t tasks = 0;
    const auto overhead = paired_overhead(kOverheadReps, run_off, [&] {
      const std::uint64_t tasks_before = profiler.totals().tasks;
      global_pool().set_profiler(&profiler);
      const double elapsed =
          timed_seconds([&] { return core::run_slrh(scenario, overhead_params); });
      global_pool().set_profiler(nullptr);
      tasks = profiler.totals().tasks - tasks_before;
      return elapsed;
    });
    report.metrics().gauge("bench.profiler_off_seconds").set(overhead.off_seconds);
    report.metrics().gauge("bench.profiler_on_seconds").set(overhead.on_seconds);
    report.metrics().gauge("bench.profiler_overhead_ratio").set(overhead.ratio);
    std::cout << "profiler: off " << overhead.off_seconds << " s, on "
              << overhead.on_seconds << " s (median " << overhead.ratio << "x, "
              << tasks << " pool tasks)\n";
  }

  std::cout << "wrote " << report.write_json() << "\n";
}

/// True when argv asks Google Benchmark only to list the benchmarks
/// (`--benchmark_list_tests`, or `=` a truthy value; the last one wins, as
/// in the library's own parse). Such a run prints the names and nothing else.
bool lists_benchmarks_only(int argc, char** argv) {
  constexpr std::string_view flag = "--benchmark_list_tests";
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with(flag)) continue;
    arg.remove_prefix(flag.size());
    if (arg.empty()) {
      list = true;
    } else if (arg.front() == '=') {
      std::string value(arg.substr(1));
      std::transform(value.begin(), value.end(), value.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      list = !(value == "0" || value == "f" || value == "n" || value == "false" ||
               value == "no" || value == "off");
    }
  }
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick (CI's bench-gate job): skip the google-benchmark sweep and only
  // produce BENCH_inner_loop.json. Stripped before handle_bench_flags so the
  // lenient pass doesn't forward it to the benchmark library.
  bool quick = false;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--quick") {
        quick = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }
  if (const auto exit_code =
          ahg::bench::handle_bench_flags(argc, argv, /*lenient=*/true)) {
    return *exit_code;
  }
  const bool list_only = lists_benchmarks_only(argc, argv);
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (list_only) return 0;  // names only: no gated runs, no BENCH_inner_loop.json
  write_inner_loop_report();
  return 0;
}
