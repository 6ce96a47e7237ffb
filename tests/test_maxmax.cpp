#include "core/maxmax.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scenario_cache.hpp"
#include "core/validate.hpp"
#include "support/event_log.hpp"
#include "support/metrics.hpp"
#include "workload/dynamics.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

MaxMaxParams default_params() {
  MaxMaxParams p;
  p.weights = Weights::make(0.5, 0.1);
  return p;
}

TEST(MaxMax, MapsIndependentTasks) {
  const auto s = test::two_fast_independent(8);
  const auto result = run_maxmax(s, default_params());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.t100, 8u);
  const auto report = validate_schedule(s, *result.schedule);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(MaxMax, RespectsPrecedence) {
  const auto s = test::make_scenario(sim::GridConfig::make(2, 0), 3,
                                     {{0, 1, 1e6}, {0, 2, 1e6}},
                                     {{10.0, 10.0}, {10.0, 10.0}, {10.0, 10.0}},
                                     100000);
  const auto result = run_maxmax(s, default_params());
  ASSERT_TRUE(result.complete);
  const auto& a0 = result.schedule->assignment(0);
  EXPECT_GE(result.schedule->assignment(1).start, a0.finish);
  EXPECT_GE(result.schedule->assignment(2).start, a0.finish);
  const auto report = validate_schedule(s, *result.schedule);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(MaxMax, ScoreTiesBalanceAcrossMachines) {
  // Six identical tasks on two identical machines with alpha = 1 (so every
  // primary placement scores the same): the earliest-finish tie-break must
  // spread the work instead of stacking machine 0.
  std::vector<std::vector<double>> etc(6, std::vector<double>{10.0, 10.0});
  const auto s = test::make_scenario(sim::GridConfig::make(2, 0), 6, {}, etc, 100000);
  MaxMaxParams p;
  p.weights = Weights::make(1.0, 0.0);  // gamma = 0: flat AET term
  const auto result = run_maxmax(s, p);
  ASSERT_TRUE(result.complete);
  EXPECT_LE(result.aet, 300);  // 6 tasks * 100 cycles over 2 machines
}

TEST(MaxMax, PositiveGammaRewardsLateFinishes) {
  // The paper's positive AET term genuinely prefers placements that extend
  // the application's finish time; with a large gamma the heuristic stacks
  // one machine. This documents the (faithful) behaviour the weight tuner
  // must steer around.
  std::vector<std::vector<double>> etc(6, std::vector<double>{10.0, 10.0});
  const auto s = test::make_scenario(sim::GridConfig::make(2, 0), 6, {}, etc, 100000);
  MaxMaxParams p;
  p.weights = Weights::make(0.1, 0.0);  // gamma = 0.9
  const auto result = run_maxmax(s, p);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.aet, 600);  // serialized on one machine
}

TEST(MaxMax, IsStaticNoClockQuantization) {
  // Unlike SLRH, assignments can start at arbitrary times (no dT grid): a
  // chain's second task starts exactly at the parent's finish.
  const auto s = test::make_scenario(sim::GridConfig::make(1, 0), 2, {{0, 1, 0.0}},
                                     {{1.23}, {4.56}}, 100000);
  const auto result = run_maxmax(s, default_params());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.schedule->assignment(1).start,
            result.schedule->assignment(0).finish);
}

TEST(MaxMax, PrefersPrimaryWhenAffordable) {
  const auto s = test::two_fast_independent(4);
  const auto result = run_maxmax(s, default_params());
  EXPECT_EQ(result.t100, 4u);
}

TEST(MaxMax, MixesVersionsUnderEnergyPressure) {
  // Battery supports one primary (1.0 u) plus change.
  auto grid = sim::GridConfig::make(1, 0).with_battery_scale(1.25 / 580.0);
  const auto s = test::make_scenario(std::move(grid), 2, {}, {{10.0}, {10.0}},
                                     100000);
  const auto result = run_maxmax(s, default_params());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.t100, 1u);
}

TEST(MaxMax, StuckWhenNothingFits) {
  // Battery cannot afford even a secondary of task 1 after task 0.
  auto grid = sim::GridConfig::make(1, 0).with_battery_scale(0.14 / 580.0);
  const auto s = test::make_scenario(std::move(grid), 2, {}, {{10.0}, {10.0}},
                                     100000);
  const auto result = run_maxmax(s, default_params());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.assigned, 1u);  // one secondary (0.1 u), then stuck
  EXPECT_FALSE(result.feasible());
}

TEST(MaxMax, DeterministicAcrossRuns) {
  const auto s = test::small_suite_scenario();
  const auto a = run_maxmax(s, default_params());
  const auto b = run_maxmax(s, default_params());
  EXPECT_EQ(a.t100, b.t100);
  EXPECT_EQ(a.aet, b.aet);
  EXPECT_DOUBLE_EQ(a.tec, b.tec);
}

class MaxMaxValidity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMaxValidity, ProducesValidSchedules) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48, GetParam());
  const auto result = run_maxmax(s, default_params());
  ValidateOptions options;
  options.require_complete = false;
  options.require_within_tau = false;
  const auto report = validate_schedule(s, *result.schedule, options);
  EXPECT_TRUE(report.ok()) << report.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMaxValidity,
                         ::testing::Values(1u, 7u, 42u, 20040426u));

TEST(MaxMax, DegradedCasesStillValid) {
  for (const auto grid_case : {sim::GridCase::B, sim::GridCase::C}) {
    const auto s = test::small_suite_scenario(grid_case, 48);
    const auto result = run_maxmax(s, default_params());
    ValidateOptions options;
    options.require_complete = false;
    options.require_within_tau = false;
    const auto report = validate_schedule(s, *result.schedule, options);
    EXPECT_TRUE(report.ok()) << to_string(grid_case) << ": " << report.str();
  }
}

/// Commits that start before their machine's latest finish at commit time:
/// Max-Max backfilled an interior hole.
std::size_t count_backfills(const workload::Scenario& scenario,
                            const sim::Schedule& schedule) {
  std::vector<Cycles> latest(scenario.num_machines(), 0);
  std::size_t backfills = 0;
  for (const TaskId task : schedule.assignment_order()) {
    const auto& a = schedule.assignment(task);
    Cycles& machine_latest = latest[static_cast<std::size_t>(a.machine)];
    if (a.start < machine_latest) ++backfills;
    machine_latest = std::max(machine_latest, a.finish);
  }
  return backfills;
}

// The candidate table against the full per-round rescan: identical
// placements in identical order and identical round counts, over the paper's
// grid cases, with and without channel outages (transfers wait on blocked
// channels, which the cheap estimate ignores), with and without the deadline
// test, under both AET signs, and with a run-local and a shared cache. The
// exclusion path must run in at least one
// case. A dynamic-arrival shape makes Max-Max book late-released tasks
// first and backfill the holes they leave, so a commit's booking lands
// inside other entries' slots (re-priced from its end) as well as clear of
// them (kept): under both signs it must backfill and re-price.
TEST(MaxMaxIncrementalProperty, MatchesRescanOracle) {
  struct Shape {
    std::string name;
    workload::Scenario scenario;
    bool backfills;  ///< must backfill and re-price under both signs
  };
  std::vector<Shape> shapes;
  for (const auto grid_case : {sim::GridCase::A, sim::GridCase::B, sim::GridCase::C}) {
    for (const int outages : {0, 2}) {
      auto s = test::small_suite_scenario(grid_case, 256);
      if (outages > 0) {
        s.link_outages = {{0, s.tau / 20, s.tau / 4}, {1, 0, s.tau / 6}};
      }
      shapes.push_back({to_string(grid_case) + " outages " + std::to_string(outages),
                        std::move(s), false});
    }
  }
  {
    auto s = test::small_suite_scenario(sim::GridCase::A, 256);
    s.releases = workload::generate_release_times(workload::ReleaseParams{0.5}, s.dag,
                                                  s.tau, 7);
    shapes.push_back({"A released", std::move(s), true});
  }
  std::size_t exclusions = 0;
  for (const Shape& shape : shapes) {
    const workload::Scenario& s = shape.scenario;
    const ScenarioCache shared(s);
    for (const bool enforce_tau : {true, false}) {
      for (const AetSign sign : {AetSign::Reward, AetSign::Penalize}) {
        MaxMaxParams params;
        params.weights = Weights::make(0.6, 0.3);
        params.enforce_tau = enforce_tau;
        params.aet_sign = sign;
        const auto oracle = test::scan_maxmax_oracle(s, params);
        exclusions += oracle.exclusions;
        const auto& want = *oracle.schedule;
        for (const bool shared_cache : {false, true}) {
          SCOPED_TRACE(shape.name + " tau " + std::to_string(enforce_tau) +
                       " sign " + std::to_string(static_cast<int>(sign)) +
                       " shared cache " + std::to_string(shared_cache));
          if (shared_cache) params.cache = &shared;
          obs::MetricsRegistry metrics;
          obs::ForwardSink sink(&metrics, nullptr);
          params.sink = &sink;
          const auto result = run_maxmax(s, params);
          params.cache = nullptr;
          params.sink = nullptr;
          EXPECT_EQ(result.iterations, oracle.iterations);
          const auto& got = *result.schedule;
          ASSERT_EQ(got.assignment_order().size(), want.assignment_order().size());
          for (std::size_t i = 0; i < want.assignment_order().size(); ++i) {
            const TaskId task = want.assignment_order()[i];
            ASSERT_EQ(got.assignment_order()[i], task) << "commit " << i;
            const auto& a = got.assignment(task);
            const auto& b = want.assignment(task);
            EXPECT_EQ(a.machine, b.machine) << "task " << task;
            EXPECT_EQ(a.version, b.version) << "task " << task;
            EXPECT_EQ(a.start, b.start) << "task " << task;
            EXPECT_EQ(a.finish, b.finish) << "task " << task;
          }
          if (shape.backfills) {
            EXPECT_GT(count_backfills(s, got), 0u);
            // Every task whose parents all mapped joined the frontier and
            // had its row priced once; anything beyond that is a re-price of
            // an overlapped entry.
            std::size_t joined = 0;
            for (TaskId t = 0; t < static_cast<TaskId>(s.num_tasks()); ++t) {
              const auto parents = s.dag.parents(t);
              joined += std::all_of(parents.begin(), parents.end(), [&](TaskId p) {
                return got.is_assigned(p);
              });
            }
            const obs::MetricsSnapshot snapshot = metrics.snapshot();
            const auto* priced = snapshot.find_counter("maxmax.entries_priced");
            ASSERT_NE(priced, nullptr);
            EXPECT_GT(priced->value, 2 * s.num_machines() * joined);
          }
        }
      }
    }
  }
  EXPECT_GT(exclusions, 0u);
}

}  // namespace
}  // namespace ahg::core
