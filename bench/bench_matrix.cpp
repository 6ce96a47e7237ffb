// Campaign-engine benchmark: the same (case x heuristic x scenario) tuned
// grid run three ways — strictly serial, parallel cold (cell fan-out +
// nested tuner sweeps on the work-stealing pool, populating the cell
// cache), and parallel warm (every cell served from the cache). Writes
// BENCH_matrix.json (BENCH_matrix_smoke.json at REPRO_SCALE=smoke) with the
// three wall-clock times, the parallel speedup, and the warm run's hit/miss
// counts, and cross-checks that all three matrices agree on every
// deterministic field (the determinism test asserts the same bit-for-bit;
// this bench keeps the check in the measured binary).

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bench/bench_eval_common.hpp"

namespace {

using namespace ahg;

/// Deterministic-field equality between two matrices (wall-clock-derived
/// values excluded: wall_seconds and the Fig. 7 value metric are measured
/// time, not schedule content). Exits nonzero on the first mismatch.
void expect_same_results(const core::EvaluationMatrix& want,
                         const core::EvaluationMatrix& got, const char* label) {
  bool ok = want.cells.size() == got.cells.size();
  for (std::size_t i = 0; ok && i < want.cells.size(); ++i) {
    const auto& a = want.cells[i];
    const auto& b = got.cells[i];
    ok = a.grid_case == b.grid_case && a.heuristic == b.heuristic &&
         a.feasible_count == b.feasible_count &&
         a.scenarios.size() == b.scenarios.size();
    for (std::size_t s = 0; ok && s < a.scenarios.size(); ++s) {
      const auto& x = a.scenarios[s];
      const auto& y = b.scenarios[s];
      ok = x.etc_index == y.etc_index && x.dag_index == y.dag_index &&
           x.upper_bound == y.upper_bound && x.tune.found == y.tune.found &&
           x.tune.alpha == y.tune.alpha && x.tune.beta == y.tune.beta &&
           x.tune.best.t100 == y.tune.best.t100 &&
           x.tune.best.aet == y.tune.best.aet &&
           x.tune.best.tec == y.tune.best.tec;
    }
  }
  if (!ok) {
    std::cerr << "FATAL: " << label
              << " diverged from the serial matrix — determinism bug\n";
    std::exit(1);
  }
  std::cout << label << ": results identical to serial\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto exit_code = ahg::bench::handle_bench_flags(argc, argv)) {
    return *exit_code;
  }
  const auto ctx = bench::make_context("Campaign engine: serial vs parallel vs cached");
  // Like bench_scale, a smoke run dumps (and gates) under its own name: its
  // serial pass is ~30x shorter, so its ratios cannot be held against the
  // default-scale BENCH_matrix.json baseline.
  bench::BenchReport report(ctx.scale == ReproScale::Smoke ? "matrix_smoke"
                                                           : "matrix");

  // A dedicated cache dir, cleared up front, so "cold" is honest even when
  // a previous bench run populated the default cache.
  const std::string cache_dir =
      (std::filesystem::path(bench::cache_dir_by_flags()) / "matrix_bench").string();
  std::filesystem::remove_all(cache_dir);

  const workload::ScenarioSuite suite(ctx.suite_params);
  const auto heuristics = core::reported_heuristics();
  const auto cases = bench::all_cases();

  core::EvaluationParams serial_params = bench::eval_params(ctx, /*verbose=*/false);
  serial_params.parallel_cells = false;
  serial_params.tuner.parallel = false;

  std::cout << "serial pass (1 thread) ...\n";
  const Stopwatch serial_timer;
  const auto serial = report.timed_section("matrix_serial", [&] {
    return core::evaluate_matrix(suite, cases, heuristics, serial_params);
  });
  const double serial_seconds = serial_timer.seconds();

  std::cout << "parallel cold pass (" << global_pool_jobs() << " jobs) ...\n";
  bench::CellCache cold_cache(cache_dir);
  const Stopwatch parallel_timer;
  const auto parallel = report.timed_section("matrix_parallel", [&] {
    return bench::run_matrix(ctx, /*verbose=*/false, nullptr, &cold_cache);
  });
  const double parallel_seconds = parallel_timer.seconds();
  expect_same_results(serial, parallel, "parallel cold");

  std::cout << "parallel warm pass (cache at " << cache_dir << ") ...\n";
  bench::CellCache warm_cache(cache_dir);
  const Stopwatch warm_timer;
  const auto warm = report.timed_section("matrix_warm", [&] {
    return bench::run_matrix(ctx, /*verbose=*/false, nullptr, &warm_cache);
  });
  const double warm_seconds = warm_timer.seconds();
  expect_same_results(serial, warm, "cache warm");

  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  const double warm_speedup = warm_seconds > 0.0 ? serial_seconds / warm_seconds : 0.0;
  const auto total_cells = static_cast<std::int64_t>(serial.cells.size());
  report.metrics().gauge("bench.serial_seconds").set(serial_seconds);
  report.metrics().gauge("bench.parallel_seconds").set(parallel_seconds);
  report.metrics().gauge("bench.warm_seconds").set(warm_seconds);
  report.metrics().gauge("bench.parallel_speedup").set(speedup);
  report.metrics().gauge("bench.warm_speedup").set(warm_speedup);
  report.merge(parallel.exec);
  report.meta("cells", total_cells);
  report.meta("cache_hits", static_cast<std::int64_t>(warm_cache.hits()));
  report.meta("cache_misses", static_cast<std::int64_t>(warm_cache.misses()));

  std::cout << "\nserial:        " << serial_seconds << " s\n"
            << "parallel cold: " << parallel_seconds << " s  (" << speedup
            << "x, jobs=" << global_pool_jobs() << ")\n"
            << "cache warm:    " << warm_seconds << " s  (" << warm_speedup
            << "x; " << warm_cache.hits() << "/" << total_cells
            << " cells from cache)\n"
            << "wrote " << report.write_json() << "\n";
  return 0;
}
