// Large-scale end-to-end tier: one SLRH mapping run far above the paper's
// |T| = 1024 — the ad-hoc-grid regime the pool build's gather rows and
// activation index and the timeline hole index exist for. Default scale maps |T| = 65 536 subtasks
// onto |M| = 512 machines (128 subtasks per machine, half the paper's
// per-machine pressure, with tau and batteries scaled to match); smoke scale
// is the CI-sized run of the same shape. Dumps BENCH_scale.json /
// BENCH_scale_smoke.json for the regression gate.
//
// The scenario (bench::make_scale_scenario) generalises the suite's recipe to
// an arbitrary machine count: a half-fast/half-slow grid, the Gamma-CVB ETC,
// a layered DAG whose level width scales with |T| (wide levels = large ready
// frontiers = large pools, the stress this tier measures), and per-machine
// tau/battery pressure pinned to a constant fraction of the paper's so the
// runs stay feasible and version-mixed at every size.

#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "core/scenario_cache.hpp"
#include "core/slrh.hpp"
#include "support/contract.hpp"
#include "support/env.hpp"
#include "support/event_log.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;

struct ScaleShape {
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  const char* bench_name = nullptr;
};

ScaleShape shape_for(ReproScale scale) {
  switch (scale) {
    case ReproScale::Smoke:
      return {8192, 64, "scale_smoke"};
    case ReproScale::Default:
    case ReproScale::Paper:
      return {65536, 512, "scale"};
    case ReproScale::Large:
      // The scaling-curve tier (weekly CI). |T| = 1M stays behind
      // AHG_SCALE_TASKS=1048576 — same shape, one doubling step further.
      return {262144, 512, "scale_large"};
  }
  return {65536, 512, "scale"};
}

/// Accepted ranges for the AHG_SCALE_* overrides. 2^20 tasks is the 1M
/// target shape; anything above it would also blow the int32 TaskId budget
/// long before memory does.
constexpr std::int64_t kMaxScaleTasks = 1 << 20;
constexpr std::int64_t kMaxScaleMachines = 1 << 15;

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;
  if (const auto exit_code = bench::handle_bench_flags(argc, argv)) {
    return *exit_code;
  }
  ScaleShape shape = shape_for(repro_scale_from_env());
  // Local-experiment overrides; the gated CI shapes come from REPRO_SCALE.
  // Strictly validated: a malformed or out-of-range value must not silently
  // fall back to the default shape and masquerade as an override run.
  bool overridden = false;
  try {
    if (const std::int64_t t =
            env_int_checked("AHG_SCALE_TASKS", 0, 1, kMaxScaleTasks);
        t > 0) {
      shape.num_tasks = static_cast<std::size_t>(t);
      overridden = true;
    }
    if (const std::int64_t m =
            env_int_checked("AHG_SCALE_MACHINES", 0, 1, kMaxScaleMachines);
        m > 0) {
      shape.num_machines = static_cast<std::size_t>(m);
      overridden = true;
    }
  } catch (const PreconditionError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  // An overridden shape dumps (and gates) under its own name — the weekly
  // 1M run must not overwrite the 262k tier's BENCH_scale_large.json or be
  // compared against its baseline.
  std::string bench_name = shape.bench_name;
  if (overridden) {
    bench_name = "scale_" + std::to_string(shape.num_tasks) + "x" +
                 std::to_string(shape.num_machines);
  }

  // The accelerated runs are the default; AHG_SCALE_SERIAL_REF=1 adds
  // rebuild-everything re-runs of every variant (pool_reuse off),
  // interleaved with untelemetered accelerated re-runs, plus a
  // bench.<variant>_sweep_speedup gauge. Defaults on for the gated
  // smoke/default tiers — where the serial run is minutes, not hours — and
  // off for the large/1M shapes whose serial reference would blow the CI
  // window.
  const bool default_serial_ref =
      !overridden && repro_scale_from_env() != ReproScale::Large;
  const bool serial_ref =
      env_int("AHG_SCALE_SERIAL_REF", default_serial_ref ? 1 : 0) != 0;

  std::cout << "=== bench_scale (" << bench_name << ") ===\n"
            << build_description() << ", jobs=" << global_pool_jobs() << "\n"
            << "|T|=" << shape.num_tasks << ", |M|=" << shape.num_machines
            << " (REPRO_SCALE=smoke|default|large to change)\n\n";

  bench::BenchReport report(bench_name);
  report.meta("num_tasks", static_cast<std::int64_t>(shape.num_tasks));
  report.meta("num_machines", static_cast<std::int64_t>(shape.num_machines));

  // --worker-trace / --heartbeat observability: live progress for the
  // multi-hour 262k/1M tiers, and the per-worker wall-clock trace for the CI
  // evidence bundle. No flags, no cost.
  bench::RuntimeSession session;
  session.set_phase("scenario_build");

  const auto scenario = report.timed_section("scenario_build", [&] {
    return bench::make_scale_scenario(shape.num_tasks, shape.num_machines, 20040426);
  });
  session.set_phase("cache_build");
  const auto cache = report.timed_section(
      "cache_build", [&] { return core::ScenarioCache(scenario); });
  report.metrics()
      .gauge("bench.cache_columns_built")
      .set(static_cast<double>(cache.columns_built()));
  // Exact for a shape (24 B per pair plus per-task and per-machine terms),
  // so the gate catches any table the cache grows back.
  report.metrics()
      .gauge("memory.scenario_cache_bytes")
      .set(static_cast<double>(cache.memory_bound_bytes()));

  // Phase sink: routes the driver's slrh.*_seconds histograms (pool build,
  // scoring, placement) and the pool_reuse counters into the dump, so
  // bench_check --plot-scaling can break the curve into phases.
  obs::ForwardSink phase_sink(&report.metrics(), nullptr);

  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &cache;
    params.sink = &phase_sink;
    params.heartbeat = session.heartbeat();
    const std::string name = core::to_string(variant);
    session.set_phase(name + "_run");
    const auto result = report.timed_section(
        name + "_run", [&] { return core::run_slrh(scenario, params); });
    report.metrics().counter("bench." + name + "_assigned").add(result.assigned);
    report.metrics().counter("bench." + name + "_t100").add(result.t100);
    report.metrics()
        .counter("bench." + name + "_pools")
        .add(static_cast<std::uint64_t>(result.pools_built));
    report.metrics()
        .counter("bench." + name + "_pools_reused")
        .add(static_cast<std::uint64_t>(result.pools_reused));
    report.metrics()
        .counter("bench." + name + "_complete")
        .add(result.complete ? 1 : 0);
    std::cout << name << ": assigned " << result.assigned << "/"
              << shape.num_tasks << ", t100 " << result.t100 << ", pools "
              << result.pools_built << " (+" << result.pools_reused
              << " reused)\n";

    if (serial_ref) {
      // Min-of-3 interleaved (serial, accelerated) pairs; one run per side
      // wandered with host noise. Both sides run bare: the recorded run's
      // telemetry is no part of the reuse gain, and the serial loop never
      // carried it.
      constexpr int kSpeedupPairs = 3;
      core::SlrhParams serial = params;
      serial.sink = nullptr;
      serial.pool_reuse = false;
      core::SlrhParams bare = params;
      bare.sink = nullptr;
      const auto serial_seconds_of_run = [&] {
        const auto serial_result = core::run_slrh(scenario, serial);
        AHG_EXPECTS_MSG(serial_result.assigned == result.assigned &&
                            serial_result.t100 == result.t100 &&
                            serial_result.tec == result.tec,
                        "serial reference diverged from accelerated run");
        return serial_result.wall_seconds;
      };
      const auto bare_seconds_of_run = [&] {
        return core::run_slrh(scenario, bare).wall_seconds;
      };
      session.set_phase(name + "_serial_run");
      double serial_seconds =
          report.timed_section(name + "_serial_run", serial_seconds_of_run);
      double reuse_seconds = bare_seconds_of_run();
      for (int pair = 1; pair < kSpeedupPairs; ++pair) {
        // Alternate which side of the pair runs first.
        if (pair % 2 != 0) reuse_seconds = std::min(reuse_seconds, bare_seconds_of_run());
        serial_seconds = std::min(serial_seconds, serial_seconds_of_run());
        if (pair % 2 == 0) reuse_seconds = std::min(reuse_seconds, bare_seconds_of_run());
      }
      const double speedup = reuse_seconds > 0.0 ? serial_seconds / reuse_seconds : 0.0;
      report.metrics().gauge("bench." + name + "_sweep_speedup").set(speedup);
      std::cout << name << " serial reference: " << serial_seconds << " s vs "
                << reuse_seconds << " s accelerated (" << speedup
                << "x, min of " << kSpeedupPairs << " bare pairs)\n";
    }
  }

  session.set_phase("done");
  std::cout << "wrote " << report.write_json() << "\n";
  return 0;
}
