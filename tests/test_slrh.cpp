#include "core/slrh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/taps.hpp"
#include "core/validate.hpp"
#include "support/event_log.hpp"
#include "support/metrics.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

SlrhParams default_params(SlrhVariant variant = SlrhVariant::V1) {
  SlrhParams p;
  p.variant = variant;
  p.weights = Weights::make(0.5, 0.1);
  return p;
}

TEST(Slrh, MapsIndependentTasksAcrossMachines) {
  const auto s = test::two_fast_independent(8);
  const auto result = run_slrh(s, default_params());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.within_tau);
  EXPECT_EQ(result.t100, 8u);  // plenty of energy: everything primary
  // Two machines, four 100-cycle tasks each, clock-driven with dT=10.
  EXPECT_LE(result.aet, 500);
  const auto report = validate_schedule(s, *result.schedule);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Slrh, RespectsPrecedenceChain) {
  // 0 -> 1 -> 2, all on one machine class.
  const auto s = test::make_scenario(sim::GridConfig::make(1, 0), 3,
                                     {{0, 1, 0.0}, {1, 2, 0.0}},
                                     {{10.0}, {10.0}, {10.0}}, 100000);
  const auto result = run_slrh(s, default_params());
  ASSERT_TRUE(result.complete);
  const auto& a0 = result.schedule->assignment(0);
  const auto& a1 = result.schedule->assignment(1);
  const auto& a2 = result.schedule->assignment(2);
  EXPECT_GE(a1.start, a0.finish);
  EXPECT_GE(a2.start, a1.finish);
}

TEST(Slrh, ToStringNamesVariants) {
  EXPECT_EQ(to_string(SlrhVariant::V1), "SLRH-1");
  EXPECT_EQ(to_string(SlrhVariant::V2), "SLRH-2");
  EXPECT_EQ(to_string(SlrhVariant::V3), "SLRH-3");
}

TEST(Slrh, ParamValidation) {
  SlrhParams p = default_params();
  p.dt = 0;
  EXPECT_THROW(p.validate(), PreconditionError);
  p = default_params();
  p.horizon = -1;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(Slrh, VariantOneMapsAtMostOneTaskPerMachinePerSweep) {
  // 6 independent tasks, 1 machine, huge horizon: V1 maps one per sweep, so
  // with execution time 10 s = 100 cycles >> dT the tasks land sequentially
  // and the sweep count is at least the number of tasks.
  const auto s = test::make_scenario(
      sim::GridConfig::make(1, 0), 6, {},
      {{10.0}, {10.0}, {10.0}, {10.0}, {10.0}, {10.0}}, 100000);
  const auto result = run_slrh(s, default_params(SlrhVariant::V1));
  ASSERT_TRUE(result.complete);
  EXPECT_GE(result.iterations, 6u);
}

TEST(Slrh, VariantTwoStacksWithinHorizon) {
  // Same workload: V2 keeps assigning from the pool while starts fall within
  // the horizon. With H = 1000 cycles it can stack several tasks in sweep 1.
  const auto s = test::make_scenario(
      sim::GridConfig::make(1, 0), 6, {},
      {{10.0}, {10.0}, {10.0}, {10.0}, {10.0}, {10.0}}, 100000);
  SlrhParams p = default_params(SlrhVariant::V2);
  p.horizon = 1000;
  const auto result = run_slrh(s, p);
  ASSERT_TRUE(result.complete);
  EXPECT_LT(result.iterations, 6u);  // stacked: far fewer sweeps than tasks
  const auto report = validate_schedule(s, *result.schedule);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Slrh, VariantTwoDoesNotSeeNewChildren) {
  // Chain 0 -> 1 with zero data: after mapping 0, its child becomes
  // admissible, but V2 works from the pool built at sweep start (only {0}),
  // so 1 waits for the next sweep; V3 rebuilds and maps it immediately.
  const auto s = test::make_scenario(sim::GridConfig::make(1, 0), 2, {{0, 1, 0.0}},
                                     {{10.0}, {10.0}}, 100000);
  SlrhParams p2 = default_params(SlrhVariant::V2);
  p2.horizon = 100000;
  const auto r2 = run_slrh(s, p2);
  ASSERT_TRUE(r2.complete);
  EXPECT_GE(r2.iterations, 2u);

  SlrhParams p3 = default_params(SlrhVariant::V3);
  p3.horizon = 100000;
  const auto r3 = run_slrh(s, p3);
  ASSERT_TRUE(r3.complete);
  EXPECT_EQ(r3.iterations, 1u);
}

TEST(Slrh, HorizonLimitsLookahead) {
  // One machine, task 0 runs [0,100); with H = 10 nothing else can be
  // scheduled until the machine frees up, so task 1 starts exactly at 100.
  const auto s = test::make_scenario(sim::GridConfig::make(1, 0), 2, {},
                                     {{10.0}, {10.0}}, 100000);
  SlrhParams p = default_params(SlrhVariant::V2);
  p.horizon = 10;
  const auto result = run_slrh(s, p);
  ASSERT_TRUE(result.complete);
  const auto& a1 = result.schedule->assignment(1);
  EXPECT_EQ(a1.start, 100);
}

TEST(Slrh, StopsAtTauWithWorkRemaining) {
  // tau far too small to finish: the run must terminate, incomplete.
  const auto s = test::make_scenario(sim::GridConfig::make(1, 0), 4, {},
                                     {{10.0}, {10.0}, {10.0}, {10.0}}, 150);
  const auto result = run_slrh(s, default_params());
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.feasible());
  EXPECT_GT(result.assigned, 0u);
}

TEST(Slrh, FallsBackToSecondaryUnderEnergyPressure) {
  // One fast machine whose battery only supports one primary (1.0 u each).
  auto grid = sim::GridConfig::make(1, 0).with_battery_scale(1.3 / 580.0);
  const auto s = test::make_scenario(std::move(grid), 2, {},
                                     {{10.0}, {10.0}}, 100000);
  const auto result = run_slrh(s, default_params());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.t100, 1u);  // one primary (1.0 u) + one secondary (0.1 u)
  EXPECT_LE(result.tec, 1.3);
}

TEST(Slrh, ArrivalBoundRejectsBeyondHorizonChildWithoutPlanning) {
  // Task 1 needs 800 Mbit from task 0 (on machine 0, finishing at 100) and
  // nothing from task 2, which is released with it at 10 and runs briefly
  // on machine 1. When machine 1 sees task 1, both parents have finished by
  // clock + H, but the 8 Mbit/s transfer alone takes 1000 cycles. A single
  // data edge means no channel contention: the gather's bound is the exact
  // arrival, so a walk that plans only what the bound admits commits every
  // plan it makes.
  auto s = test::make_scenario(sim::GridConfig::make(2, 0), 3,
                               {{0, 1, 8e8}, {2, 1, 0.0}},
                               {{10.0, 10.0}, {10.0, 10.0}, {1.0, 1.0}}, 100000);
  s.releases = {0, 10, 10};
  for (const auto variant : {SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3}) {
    SCOPED_TRACE(to_string(variant));
    obs::MetricsRegistry metrics;
    obs::CollectSink events;
    obs::ForwardSink sink(&metrics, &events);
    SlrhParams traced = default_params(variant);
    traced.sink = &sink;
    const auto result = run_slrh(s, traced);
    ASSERT_TRUE(result.complete);

    std::size_t child_beyond = 0;  // on machine 1, the transfer's side
    for (const auto& event : events.events()) {
      if (event.machine != 1) continue;
      for (const auto& cand : event.candidates) {
        if (cand.task == 1 && cand.reject == "beyond_horizon") ++child_beyond;
      }
    }
    EXPECT_GE(child_beyond, 1u);

    const auto snap = metrics.snapshot();
    const auto* plans = snap.find_histogram("slrh.earliest_start_seconds");
    const auto* decisions = snap.find_counter("slrh.map_decisions");
    ASSERT_NE(plans, nullptr);
    ASSERT_NE(decisions, nullptr);
    EXPECT_EQ(decisions->value, 3u);
    EXPECT_EQ(plans->count, decisions->value);

    SlrhParams rebuild = default_params(variant);
    rebuild.pool_reuse = false;
    const auto reference = run_slrh(s, rebuild);
    for (TaskId t = 0; t < 3; ++t) {
      const auto& a = result.schedule->assignment(t);
      const auto& b = reference.schedule->assignment(t);
      EXPECT_EQ(a.machine, b.machine) << "task " << t;
      EXPECT_EQ(a.version, b.version) << "task " << t;
      EXPECT_EQ(a.start, b.start) << "task " << t;
      EXPECT_EQ(a.finish, b.finish) << "task " << t;
    }
    EXPECT_EQ(result.tec, reference.tec);
  }
}

// --- the live walk vs the full-order walk -----------------------------------
//
// The map walk visits only the live slots (arrival bound within clock + H)
// and reports the dead ones among them for a listening tap. Against
// test::map_first_startable_oracle — the walk over the whole pool in order,
// on an independently built pool (scan oracle plus the per-build parent
// walk's bound) — every scope of a mid-run schedule must commit the same
// task, version and start, and list the same rejections with the same
// reasons, walk after walk (V2 re-walks one pool; V3 rebuilds after each
// commit). A scope that commits nothing must fold the same min_beyond: that
// is the only case the driver records it for. Batteries are cut so that V2
// meets dead slots whose energy ran out earlier in the scope.

const char* reject_name(Reject reject) {
  switch (reject) {
    case Reject::AlreadyAssigned: return "already_assigned";
    case Reject::EnergyExhausted: return "energy_exhausted";
    case Reject::BeyondHorizon: return "beyond_horizon";
  }
  return "?";
}

struct LiveWalkTally {
  std::size_t walks = 0;
  std::size_t dead = 0;           ///< dead slots in the pools built
  std::size_t dead_exhausted = 0; ///< dead slots rejected as energy_exhausted
  std::size_t verdict_mins = 0;   ///< commit-free scopes whose minimum was compared
};

void expect_live_walk_matches_full_walk(const workload::Scenario& s,
                                        const SlrhParams& params,
                                        LiveWalkTally& tally) {
  constexpr auto npos = static_cast<std::size_t>(-1);
  const ScenarioCache cache(s);
  const ObjectiveTotals totals = objective_totals(s);
  auto live_schedule = make_schedule(s);
  auto full_schedule = make_schedule(s);
  sim::Schedule& live_side = *live_schedule;
  sim::Schedule& full_side = *full_schedule;
  ReadyFrontier frontier(s, live_side);
  GatherRows rows(s.num_tasks(), s.num_machines());
  CandidateBatch batch;
  BeyondHorizonMemo memo(s.num_tasks());
  obs::CollectSink sink;
  SlrhParams traced = params;
  traced.sink = &sink;
  Taps taps(s, traced);
  for (Cycles stop = 0; !live_side.complete() && stop <= s.tau; stop += params.dt) {
    frontier.advance_to(stop);
    for (MachineId m = 0; m < static_cast<MachineId>(s.num_machines()); ++m) {
      if (!s.machine_available(m, stop) || live_side.machine_ready(m) > stop) continue;
      SCOPED_TRACE("clock " + std::to_string(stop) + " machine " + std::to_string(m));
      memo.begin_scope();
      std::vector<std::uint8_t> full_memo(s.num_tasks(), 0);
      Cycles live_min = std::numeric_limits<Cycles>::max();
      Cycles full_min = live_min;
      bool scope_committed = false;
      for (bool rebuild = true; rebuild;) {
        rebuild = false;
        const SlrhPool pool =
            taps.on_pool(m, stop, [&](SlrhPoolRejects* rejects, obs::Histogram* scoring) {
              return build_slrh_pool_batched(s, cache, frontier, live_side, params,
                                             totals, m, stop, rows, batch, rejects,
                                             scoring);
            });
        std::vector<SlrhPoolCandidate> full =
            test::scan_pool_oracle(s, full_side, params, totals, m, stop).pool;
        for (SlrhPoolCandidate& cand : full) {
          cand.arrival_lb =
              test::gather_parents_oracle(cache, s, full_side, cand.task, m, stop)
                  .arrival_lb;
        }
        ASSERT_EQ(pool.size(), full.size());
        if (pool.empty()) break;
        tally.dead += pool.dead().size();

        for (std::size_t live_next = 0, full_next = 0;;) {
          ++tally.walks;
          PlacementPlan live_plan;
          PlacementPlan full_plan;
          std::vector<test::WalkRejection> full_rejected;
          const std::size_t a =
              map_first_startable(s, live_side, params, pool, m, stop, cache, memo,
                                  taps, live_plan, live_next, &live_min);
          const std::size_t b = test::map_first_startable_oracle(
              s, full_side, params, full, m, stop, cache, full_memo, full_plan,
              full_next, full_min, full_rejected);
          ASSERT_EQ(a == npos, b == npos);
          if (a == npos) taps.on_stall(stop, m, pool.size());

          // The walk's record: the map decision or the stall, listing every
          // rejection in walk order (a map decision appends its choice).
          const obs::Event record = sink.events().back();
          std::vector<obs::CandidateTrace> listed = record.candidates;
          if (a != npos) {
            ASSERT_EQ(record.kind, obs::EventKind::MapDecision);
            ASSERT_FALSE(listed.empty());
            listed.pop_back();
          } else {
            ASSERT_EQ(record.kind, obs::EventKind::Stall);
          }
          ASSERT_EQ(listed.size(), full_rejected.size());
          for (std::size_t i = 0; i < listed.size(); ++i) {
            EXPECT_EQ(listed[i].task, full_rejected[i].task) << "rejection " << i;
            EXPECT_EQ(listed[i].reject, reject_name(full_rejected[i].reject))
                << "rejection " << i;
            const auto& dead = pool.dead();
            const bool is_dead =
                std::any_of(dead.begin(), dead.end(), [&](const SlrhPoolCandidate& d) {
                  return d.task == full_rejected[i].task;
                });
            if (is_dead && full_rejected[i].reject == Reject::EnergyExhausted) {
              ++tally.dead_exhausted;
            }
          }

          if (a == npos) {
            if (!scope_committed) {
              EXPECT_EQ(live_min, full_min);
              ++tally.verdict_mins;
            }
            break;
          }
          EXPECT_EQ(pool.slots[a].task, full[b].task);
          EXPECT_EQ(live_plan.version, full_plan.version);
          EXPECT_EQ(live_plan.start, full_plan.start);
          frontier.on_commit(pool.slots[a].task);
          rows.drop(pool.slots[a].task);
          scope_committed = true;
          if (params.variant == SlrhVariant::V3) {
            rebuild = true;
            break;
          }
          if (params.variant == SlrhVariant::V1) break;
          EXPECT_EQ(pool.continues_after(a), b + 1 < full.size());
          if (!pool.continues_after(a)) break;
          live_next = a + 1;
          full_next = b + 1;
        }
      }
    }
  }
  EXPECT_EQ(live_side.num_assigned(), full_side.num_assigned());
  EXPECT_EQ(live_side.tec(), full_side.tec());
}

TEST(Slrh, LiveWalkMatchesFullOrderWalk) {
  for (const auto variant : {SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3}) {
    LiveWalkTally tally;
    for (const double battery_scale : {1.0, 0.05}) {
      for (auto s : test::paper_shape_fixtures()) {
        std::vector<sim::MachineSpec> machines = s.grid.machines();
        for (sim::MachineSpec& spec : machines) spec.battery_capacity *= battery_scale;
        s.grid = sim::GridConfig(std::move(machines));
        SCOPED_TRACE(to_string(variant) + " battery x" + std::to_string(battery_scale));
        SlrhParams params = default_params(variant);
        params.weights = Weights::make(0.6, 0.3);
        expect_live_walk_matches_full_walk(s, params, tally);
      }
    }
    SCOPED_TRACE(to_string(variant));
    EXPECT_GT(tally.walks, 0u);
    EXPECT_GT(tally.dead, 0u) << "no pool had a dead slot";
    EXPECT_GT(tally.verdict_mins, 0u) << "no commit-free scope";
    if (variant == SlrhVariant::V2) {
      EXPECT_GT(tally.dead_exhausted, 0u) << "no dead slot ran out of energy";
    }
  }
}

TEST(Slrh, DeterministicAcrossRuns) {
  const auto s = test::small_suite_scenario();
  const auto a = run_slrh(s, default_params());
  const auto b = run_slrh(s, default_params());
  EXPECT_EQ(a.t100, b.t100);
  EXPECT_EQ(a.aet, b.aet);
  EXPECT_DOUBLE_EQ(a.tec, b.tec);
  EXPECT_EQ(a.assigned, b.assigned);
}

// Every variant, on several generated scenarios, must produce a schedule the
// independent validator accepts (whatever its quality).
class SlrhValidity
    : public ::testing::TestWithParam<std::tuple<SlrhVariant, std::uint64_t>> {};

TEST_P(SlrhValidity, ProducesValidSchedules) {
  const auto [variant, seed] = GetParam();
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48, seed);
  const auto result = run_slrh(s, default_params(variant));
  ValidateOptions options;
  options.require_complete = false;  // quality not required, validity is
  options.require_within_tau = false;
  const auto report = validate_schedule(s, *result.schedule, options);
  EXPECT_TRUE(report.ok()) << to_string(variant) << " seed " << seed << ": "
                           << report.str();
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, SlrhValidity,
    ::testing::Combine(::testing::Values(SlrhVariant::V1, SlrhVariant::V2,
                                         SlrhVariant::V3),
                       ::testing::Values(1u, 7u, 42u, 20040426u)));

// Weight sweep: whatever the weights, schedules must remain valid and energy
// accounting intact (the objective only steers, never breaks, feasibility).
class SlrhWeightSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SlrhWeightSweep, AnyWeightsYieldValidSchedule) {
  const auto [alpha, beta] = GetParam();
  const auto s = test::small_suite_scenario(sim::GridCase::A, 32);
  SlrhParams p = default_params();
  p.weights = Weights::make(alpha, beta);
  const auto result = run_slrh(s, p);
  ValidateOptions options;
  options.require_complete = false;
  options.require_within_tau = false;
  const auto report = validate_schedule(s, *result.schedule, options);
  EXPECT_TRUE(report.ok()) << report.str();
}

INSTANTIATE_TEST_SUITE_P(
    WeightGrid, SlrhWeightSweep,
    ::testing::Values(std::make_tuple(0.0, 0.0), std::make_tuple(1.0, 0.0),
                      std::make_tuple(0.0, 1.0), std::make_tuple(0.5, 0.5),
                      std::make_tuple(0.7, 0.1), std::make_tuple(0.2, 0.3)));

}  // namespace
}  // namespace ahg::core
