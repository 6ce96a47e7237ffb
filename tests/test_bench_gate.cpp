// Tests for the bench regression gate (bench/bench_gate.hpp): metric
// flattening, baseline round-trip, the Upper / Lower / TwoSided verdict rules, the
// seconds floor, and missing-metric handling — the logic CI's bench-gate job
// leans on via bench_check.

#include "bench/bench_gate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "support/jsonl.hpp"
#include "support/metrics.hpp"

namespace {

using namespace ahg;
using bench::GateBaseline;
using bench::GateDirection;
using bench::GateVerdict;

const std::vector<double> kPoolBounds = {8.0, 32.0, 128.0};
const std::vector<double> kUnitBound = {1.0};

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsRegistry registry;
  registry.counter("slrh.maps").add(100);
  registry.gauge("bench.inner_loop_seconds").set(0.010);
  registry.gauge("bench.recorder_overhead_ratio").set(1.02);
  registry.histogram("pool.size", kPoolBounds).observe(20.0);
  return registry.snapshot();
}

TEST(BenchGate, FlattenProducesTypedKeysAndSkipsNonFinite) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(1.5);
  registry.gauge("bad").set(std::numeric_limits<double>::infinity());
  auto& h = registry.histogram("h", kUnitBound);
  h.observe(0.5);
  h.observe(2.0);

  const auto flat = bench::flatten_metrics(registry.snapshot());
  EXPECT_DOUBLE_EQ(flat.at("counter:c"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("gauge:g"), 1.5);
  EXPECT_DOUBLE_EQ(flat.at("hist_mean:h"), 1.25);
  EXPECT_DOUBLE_EQ(flat.at("hist_count:h"), 2.0);
  EXPECT_EQ(flat.count("gauge:bad"), 0u);  // non-finite cannot be gated
}

TEST(BenchGate, DirectionDefaultsByName) {
  EXPECT_EQ(bench::default_direction("gauge:bench.inner_loop_seconds"),
            GateDirection::Upper);
  EXPECT_EQ(bench::default_direction("hist_mean:pool.build_seconds"),
            GateDirection::Upper);
  EXPECT_EQ(bench::default_direction("counter:slrh.maps"),
            GateDirection::TwoSided);
  EXPECT_EQ(bench::default_direction("gauge:bench.recorder_overhead_ratio"),
            GateDirection::TwoSided);
  EXPECT_EQ(bench::default_direction("gauge:bench.parallel_speedup"),
            GateDirection::Lower);
}

TEST(BenchGate, BaselineWriteParseRoundTrips) {
  const GateBaseline before =
      bench::make_baseline("inner_loop", sample_snapshot(), 0.25, 1.5);
  std::ostringstream os;
  bench::write_baseline(os, before);
  const GateBaseline after = bench::parse_baseline(obs::parse_json(os.str()));

  EXPECT_EQ(after.bench, "inner_loop");
  EXPECT_DOUBLE_EQ(after.default_tolerance, 0.25);
  ASSERT_EQ(after.metrics.size(), before.metrics.size());
  for (const auto& [key, metric] : before.metrics) {
    const auto it = after.metrics.find(key);
    ASSERT_NE(it, after.metrics.end()) << key;
    EXPECT_DOUBLE_EQ(it->second.value, metric.value) << key;
    EXPECT_DOUBLE_EQ(it->second.tolerance, metric.tolerance) << key;
    EXPECT_EQ(it->second.direction, metric.direction) << key;
  }
  // seconds_tolerance overrides only Upper metrics.
  EXPECT_DOUBLE_EQ(
      after.metrics.at("gauge:bench.inner_loop_seconds").tolerance, 1.5);
  EXPECT_DOUBLE_EQ(after.metrics.at("counter:slrh.maps").tolerance, 0.25);
}

TEST(BenchGate, IdenticalSnapshotPasses) {
  const auto snapshot = sample_snapshot();
  const GateBaseline baseline = bench::make_baseline("b", snapshot);
  const auto result = bench::check_bench(baseline, snapshot);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.missing, 0u);
  EXPECT_TRUE(result.ok(false));
}

TEST(BenchGate, DoubledCounterOutsideToleranceRegresses) {
  // The acceptance scenario: doctor one metric to 2x with a 25% tolerance.
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);

  obs::MetricsRegistry doctored;
  doctored.counter("slrh.maps").add(200);  // 2x the baseline's 100
  doctored.gauge("bench.inner_loop_seconds").set(0.010);
  doctored.gauge("bench.recorder_overhead_ratio").set(1.02);
  doctored.histogram("pool.size", kPoolBounds).observe(20.0);

  const auto result = bench::check_bench(baseline, doctored.snapshot());
  EXPECT_EQ(result.regressions, 1u);
  EXPECT_FALSE(result.ok(true));
  bool found = false;
  for (const auto& f : result.findings) {
    if (f.metric != "counter:slrh.maps") {
      EXPECT_NE(f.verdict, GateVerdict::Regression) << f.metric;
      continue;
    }
    found = true;
    EXPECT_EQ(f.verdict, GateVerdict::Regression);
    EXPECT_DOUBLE_EQ(f.baseline, 100.0);
    EXPECT_DOUBLE_EQ(f.fresh, 200.0);
  }
  EXPECT_TRUE(found);
}

TEST(BenchGate, TwoSidedCatchesDriftInBothDirections) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);
  obs::MetricsRegistry fewer;
  fewer.counter("slrh.maps").add(60);  // -40% also regresses
  fewer.gauge("bench.inner_loop_seconds").set(0.010);
  fewer.gauge("bench.recorder_overhead_ratio").set(1.02);
  fewer.histogram("pool.size", kPoolBounds).observe(20.0);
  EXPECT_EQ(bench::check_bench(baseline, fewer.snapshot()).regressions, 1u);
}

TEST(BenchGate, UpperDirectionIgnoresImprovement) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);
  obs::MetricsRegistry faster;
  faster.counter("slrh.maps").add(100);
  faster.gauge("bench.inner_loop_seconds").set(0.0001);  // 100x faster: fine
  faster.gauge("bench.recorder_overhead_ratio").set(1.02);
  faster.histogram("pool.size", kPoolBounds).observe(20.0);
  const auto result = bench::check_bench(baseline, faster.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_TRUE(result.ok(false));
}

TEST(BenchGate, LowerDirectionPassesFasterHardwareAndCatchesSlowdown) {
  // The multi-core case: a 1-core baseline speedup of 0.94 must not flag a
  // 4-core host's 2.29x, while a real drop below the tolerance still fails.
  obs::MetricsRegistry recorded;
  recorded.gauge("bench.parallel_speedup").set(0.94);
  const GateBaseline baseline =
      bench::make_baseline("matrix", recorded.snapshot(), 0.25);
  ASSERT_EQ(baseline.metrics.at("gauge:bench.parallel_speedup").direction,
            GateDirection::Lower);

  obs::MetricsRegistry faster;
  faster.gauge("bench.parallel_speedup").set(2.29);
  const auto fast = bench::check_bench(baseline, faster.snapshot());
  EXPECT_EQ(fast.regressions, 0u);
  EXPECT_TRUE(fast.ok(false));

  obs::MetricsRegistry within;
  within.gauge("bench.parallel_speedup").set(0.94 * 0.8);  // -20%: tolerated
  EXPECT_EQ(bench::check_bench(baseline, within.snapshot()).regressions, 0u);

  obs::MetricsRegistry slower;
  slower.gauge("bench.parallel_speedup").set(0.94 * 0.7);  // -30%: regression
  const auto slow = bench::check_bench(baseline, slower.snapshot());
  EXPECT_EQ(slow.regressions, 1u);
  ASSERT_EQ(slow.findings.size(), 1u);
  EXPECT_EQ(slow.findings[0].verdict, GateVerdict::Regression);
  EXPECT_EQ(slow.findings[0].direction, GateDirection::Lower);

  // The direction survives a baseline file round trip as "lower".
  std::ostringstream os;
  bench::write_baseline(os, baseline);
  EXPECT_NE(os.str().find(R"("direction":"lower")"), std::string::npos);
  EXPECT_EQ(bench::parse_baseline(obs::parse_json(os.str()))
                .metrics.at("gauge:bench.parallel_speedup")
                .direction,
            GateDirection::Lower);
}

TEST(BenchGate, SecondsFloorAbsorbsTinySectionNoise) {
  obs::MetricsRegistry registry;
  registry.gauge("tiny_seconds").set(1e-6);
  const GateBaseline baseline =
      bench::make_baseline("b", registry.snapshot(), 0.25);

  obs::MetricsRegistry noisy;
  noisy.gauge("tiny_seconds").set(2e-3);  // 2000x relative, under the floor
  EXPECT_EQ(bench::check_bench(baseline, noisy.snapshot()).regressions, 0u);

  obs::MetricsRegistry slow;
  slow.gauge("tiny_seconds").set(1e-1);  // over the 5 ms floor: regression
  EXPECT_EQ(bench::check_bench(baseline, slow.snapshot()).regressions, 1u);
}

TEST(BenchGate, MissingMetricsAreFlaggedBothWays) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot());
  obs::MetricsRegistry partial;
  partial.counter("slrh.maps").add(100);
  partial.counter("brand.new").add(1);  // not in the baseline

  const auto result = bench::check_bench(baseline, partial.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  // Baseline-only: the seconds gauges + ratio gauge + two histogram keys;
  // fresh-only: the new counter.
  std::size_t missing_fresh = 0;
  std::size_t missing_baseline = 0;
  for (const auto& f : result.findings) {
    if (f.verdict == GateVerdict::MissingFresh) ++missing_fresh;
    if (f.verdict == GateVerdict::MissingBaseline) ++missing_baseline;
  }
  EXPECT_EQ(missing_fresh, 4u);
  EXPECT_EQ(missing_baseline, 1u);
  EXPECT_EQ(result.missing, 5u);
  EXPECT_FALSE(result.ok(false));
  EXPECT_TRUE(result.ok(true));  // --allow-missing downgrades both kinds
}

TEST(BenchGate, FreshOnlyPhaseSecondsDoNotFailTheGate) {
  // An older baseline gating a dump that grew a NEW wall-clock phase (e.g.
  // slrh.earliest_start_seconds from the placement planner): the phase is
  // reported as MISSING(baseline) for visibility but never fails the gate —
  // its time already rolls up into the gated run totals. A fresh-only
  // TwoSided metric still counts as missing.
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot());
  obs::MetricsRegistry grown;
  grown.counter("slrh.maps").add(100);
  grown.gauge("bench.inner_loop_seconds").set(0.01);
  grown.gauge("bench.recorder_overhead_ratio").set(1.02);
  grown.histogram("pool.size", kPoolBounds).observe(20.0);
  grown.histogram("slrh.earliest_start_seconds", kPoolBounds).observe(0.5);

  const auto result = bench::check_bench(baseline, grown.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  std::size_t phase_findings = 0;
  for (const auto& f : result.findings) {
    if (f.verdict == GateVerdict::MissingBaseline) {
      EXPECT_NE(f.metric.find("_seconds"), std::string::npos) << f.metric;
      ++phase_findings;
    }
  }
  EXPECT_GT(phase_findings, 0u);  // reported...
  EXPECT_EQ(result.missing, 0u);  // ...but not counted
  EXPECT_TRUE(result.ok(false));

  // Contrast: a fresh-only counter is a real gap.
  grown.counter("brand.new").add(1);
  const auto with_counter = bench::check_bench(baseline, grown.snapshot());
  EXPECT_EQ(with_counter.missing, 1u);
  EXPECT_FALSE(with_counter.ok(false));
}

TEST(BenchGate, BaselinePathJoinsDirAndBenchName) {
  EXPECT_EQ(bench::baseline_path("bench/baselines", "inner_loop"),
            "bench/baselines/BENCH_inner_loop.json");
  EXPECT_EQ(bench::baseline_path(".", "scale"), "./BENCH_scale.json");
}

TEST(BenchGate, CheckWithoutBaselineFlagsEveryFreshMetric) {
  // A dump for a bench that has never been baselined (bench_check's check
  // mode hits this when the file is absent): every flattened metric comes
  // back MISSING(baseline) — a failure by default, tolerated by
  // --allow-missing, never a hard error.
  const auto snapshot = sample_snapshot();
  const auto result = bench::check_without_baseline(snapshot);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.missing, bench::flatten_metrics(snapshot).size());
  EXPECT_EQ(result.findings.size(), result.missing);
  for (const auto& f : result.findings) {
    EXPECT_EQ(f.verdict, GateVerdict::MissingBaseline) << f.metric;
  }
  EXPECT_FALSE(result.ok(false));
  EXPECT_TRUE(result.ok(true));
  // Seeding the baseline from the same dump (what --update writes) then
  // passes cleanly — the create-missing-baseline round trip.
  const GateBaseline seeded = bench::make_baseline("b", snapshot);
  EXPECT_TRUE(bench::check_bench(seeded, snapshot).ok(false));
}

TEST(BenchGate, ParseRejectsMalformedBaselines) {
  EXPECT_THROW(bench::parse_baseline(obs::parse_json("[1]")), PreconditionError);
  EXPECT_THROW(bench::parse_baseline(obs::parse_json(R"({"bench":"b"})")),
               PreconditionError);
}

}  // namespace
