#include "core/slrh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/churn.hpp"
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
          std::vector<test::WalkRejection> full_rejected;
          const std::size_t a =
              map_first_startable(s, live_side, params, pool, m, stop, cache, memo,
                                  taps, live_next, &live_min);
          const std::size_t b = test::map_first_startable_oracle(
              s, full_side, params, full, m, stop, cache, full_memo, full_next,
              full_min, full_rejected);
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
          const sim::Assignment& live_plan = live_side.assignment(pool.slots[a].task);
          const sim::Assignment& full_plan = full_side.assignment(full[b].task);
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

// --- the activation index vs the full-ready-set gather ----------------------
//
// build_slrh_pool_batched gathers only the live tasks its per-machine
// horizon-activation index names (GatherRows::activate), takes the dead
// slots' minimum from the index, and gathers the dead tasks only when asked
// to. test::full_gather_pool_oracle is the build it replaced: gather the
// whole ready set, split by the arrival bound. A test-side window driver —
// drive_slrh's machine sweep and V1/V2/V3 walks, without skip verdicts —
// builds every pool twice, without and then with the dead slots, and diffs
// both against the oracle: the live prefix and its order, the dead set,
// dead_min_arrival, empty(), the pool size and the energy tally. It runs
// the paper fixtures (Cases A/B/C and a release-time shape) with a link
// outage on two machines at full and 5 % battery, and the two windows of a
// one-departure churn run under Remap and Degrade (a degrade mask is set).
// Promoting a pending task at A instead of A - H, or taking the dead
// minimum over energy-rejected tasks too, makes it fail.

struct IndexTally {
  std::size_t builds = 0;
  std::size_t promoted = 0;   ///< tasks live after being dead on that machine
  std::size_t shadowed = 0;   ///< builds where an energy-rejected task's bound
                              ///< lies below the dead minimum
  std::size_t dead_only = 0;  ///< builds with no live slot but a dead one
  std::size_t degraded = 0;   ///< builds under a degrade mask
};

void expect_same_slot(const SlrhPoolCandidate& a, const SlrhPoolCandidate& b,
                      std::size_t k) {
  EXPECT_EQ(a.task, b.task) << "slot " << k;
  EXPECT_EQ(a.version, b.version) << "slot " << k;
  EXPECT_EQ(a.score, b.score) << "slot " << k;  // exact
  EXPECT_EQ(a.arrival_lb, b.arrival_lb) << "slot " << k;
}

/// Drive [start, end) on `schedule` with every pool checked; `rows` and
/// `batch` are the window's, so the index sees each build.
void drive_checked_window(const workload::Scenario& s, const SlrhParams& params,
                          sim::Schedule& schedule, Cycles start, Cycles end,
                          IndexTally& tally) {
  constexpr auto npos = static_cast<std::size_t>(-1);
  const ScenarioCache cache(s);
  const ObjectiveTotals totals = objective_totals(s);
  const auto num_machines = static_cast<MachineId>(s.num_machines());
  ReadyFrontier frontier(s, schedule);
  GatherRows rows(s.num_tasks(), s.num_machines());
  GatherRows oracle_rows(s.num_tasks(), s.num_machines());
  CandidateBatch batch;
  CandidateBatch oracle_batch;
  BeyondHorizonMemo memo(s.num_tasks());
  Taps taps(s, params);
  std::vector<std::vector<std::uint8_t>> was_dead(
      s.num_machines(), std::vector<std::uint8_t>(s.num_tasks(), 0));

  const auto checked_pool = [&](MachineId m, Cycles clock, SlrhPool& out) {
    ++tally.builds;
    if (params.secondary_only != nullptr) ++tally.degraded;
    const test::FullGatherPool oracle = test::full_gather_pool_oracle(
        s, cache, frontier, schedule, params, totals, m, clock, oracle_rows,
        oracle_batch);
    {
      const SlrhPool lean = build_slrh_pool_batched(s, cache, frontier, schedule, params,
                                                    totals, m, clock, rows, batch,
                                                    nullptr, nullptr, false);
      ASSERT_EQ(lean.live, oracle.live);
      ASSERT_EQ(lean.size(), lean.live) << "dead slots built unasked";
      for (std::size_t k = 0; k < lean.live; ++k) {
        expect_same_slot(lean.slots[k], oracle.slots[k], k);
      }
      EXPECT_EQ(lean.dead_min_arrival, oracle.dead_min_arrival);
      EXPECT_EQ(lean.empty(), oracle.empty());
    }
    SlrhPoolRejects rejects;
    out = build_slrh_pool_batched(s, cache, frontier, schedule, params, totals, m, clock,
                                  rows, batch, &rejects, nullptr, true);
    ASSERT_EQ(out.live, oracle.live);
    ASSERT_EQ(out.size(), oracle.slots.size());
    for (std::size_t k = 0; k < out.live; ++k) {
      expect_same_slot(out.slots[k], oracle.slots[k], k);
    }
    std::vector<SlrhPoolCandidate> dead(out.dead().begin(), out.dead().end());
    std::vector<SlrhPoolCandidate> oracle_dead(
        oracle.slots.begin() + static_cast<std::ptrdiff_t>(oracle.live),
        oracle.slots.end());
    const auto by_task = [](const SlrhPoolCandidate& a, const SlrhPoolCandidate& b) {
      return a.task < b.task;
    };
    std::sort(dead.begin(), dead.end(), by_task);
    std::sort(oracle_dead.begin(), oracle_dead.end(), by_task);
    for (std::size_t k = 0; k < dead.size(); ++k) {
      expect_same_slot(dead[k], oracle_dead[k], out.live + k);
    }
    EXPECT_EQ(out.dead_min_arrival, oracle.dead_min_arrival);
    EXPECT_EQ(out.empty(), oracle.empty());
    EXPECT_EQ(rejects.energy, oracle.rejected_energy);

    // Coverage: promotions, dead-only pools, and an energy-rejected task
    // whose bound would undercut the dead minimum.
    std::vector<std::uint8_t>& seen = was_dead[static_cast<std::size_t>(m)];
    for (std::size_t k = 0; k < oracle.slots.size(); ++k) {
      std::uint8_t& flag = seen[static_cast<std::size_t>(oracle.slots[k].task)];
      if (k >= oracle.live) {
        flag = 1;
      } else if (flag != 0) {
        ++tally.promoted;
        flag = 0;
      }
    }
    if (oracle.live == 0 && !oracle.empty()) ++tally.dead_only;
    const Cycles limit = clock + params.horizon;
    for (const TaskId task : test::ready_tasks(frontier, schedule)) {
      if (version_fits_energy(cache, schedule, task, m, VersionKind::Secondary)) continue;
      const Cycles lb =
          test::gather_parents_oracle(cache, s, schedule, task, m, clock).arrival_lb;
      if (lb > limit && lb < oracle.dead_min_arrival) {
        ++tally.shadowed;
        break;
      }
    }
  };

  for (Cycles clock = start;
       !schedule.complete() && clock <= s.tau && clock < end; clock += params.dt) {
    frontier.advance_to(clock);
    for (MachineId m = 0; m < num_machines; ++m) {
      if (schedule.complete()) break;
      if (!s.machine_available(m, clock) || schedule.machine_ready(m) > clock) continue;
      SCOPED_TRACE("clock " + std::to_string(clock) + " machine " + std::to_string(m));
      memo.begin_scope();
      for (bool rebuild = true; rebuild;) {
        rebuild = false;
        SlrhPool pool;
        checked_pool(m, clock, pool);
        if (::testing::Test::HasFatalFailure() || pool.empty()) break;
        for (std::size_t next = 0;;) {
          const std::size_t mapped = map_first_startable(
              s, schedule, params, pool, m, clock, cache, memo, taps, next, nullptr);
          if (mapped == npos) break;
          const TaskId task = pool.slots[mapped].task;
          frontier.on_commit(task);
          rows.drop(task);
          oracle_rows.drop(task);
          if (params.variant == SlrhVariant::V3) {
            rebuild = true;
            break;
          }
          if (params.variant == SlrhVariant::V1 || !pool.continues_after(mapped)) break;
          next = mapped + 1;
        }
      }
    }
  }
}

class SlrhActivationIndexProperty : public ::testing::TestWithParam<SlrhVariant> {};

TEST_P(SlrhActivationIndexProperty, PoolsMatchFullGather) {
  const SlrhVariant variant = GetParam();
  IndexTally tally;
  for (const double battery_scale : {1.0, 0.05}) {
    for (auto s : test::paper_shape_fixtures()) {
      std::vector<sim::MachineSpec> machines = s.grid.machines();
      for (sim::MachineSpec& spec : machines) spec.battery_capacity *= battery_scale;
      s.grid = sim::GridConfig(std::move(machines));
      SCOPED_TRACE("battery x" + std::to_string(battery_scale));
      SlrhParams params = default_params(variant);
      params.weights = Weights::make(0.6, 0.3);
      auto schedule = make_schedule(s);
      schedule->block_channels(0, s.tau / 20, s.tau / 4);
      schedule->block_channels(1, 0, s.tau / 6);
      drive_checked_window(s, params, *schedule, 0, s.tau + 1, tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.builds, 0u);
  EXPECT_GT(tally.promoted, 0u) << "no pending task was promoted";
  EXPECT_GT(tally.dead_only, 0u) << "no pool held dead slots only";
  EXPECT_GT(tally.shadowed, 0u) << "energy admission never shaped the dead minimum";
}

TEST_P(SlrhActivationIndexProperty, ChurnWindowsMatchFullGather) {
  const SlrhVariant variant = GetParam();
  IndexTally tally;
  for (const ChurnRecovery recovery : {ChurnRecovery::Remap, ChurnRecovery::Degrade}) {
    SCOPED_TRACE(to_string(recovery));
    const workload::Scenario s = test::one_departure_scenario();
    SlrhParams params = default_params(variant);
    params.weights = Weights::make(0.6, 0.3);
    // Window 1 runs to the first timestep on or after the departure; the
    // recovery is run_slrh_with_churn's (closure, replay, seal, mask).
    const Cycles depart = s.machine_depart(1);
    const Cycles process = (depart + params.dt - 1) / params.dt * params.dt;
    auto schedule = make_schedule(s);
    drive_checked_window(s, params, *schedule, 0, process, tally);
    if (HasFatalFailure()) return;

    std::vector<char> departed(s.num_machines(), 0);
    departed[1] = 1;
    std::vector<char> invalid = detail::compute_invalid(
        s, *schedule, departed, std::vector<char>(s.num_tasks(), 0));
    std::vector<MachineId> same_ids(s.num_machines());
    std::iota(same_ids.begin(), same_ids.end(), MachineId{0});
    auto rebuilt = detail::replay_survivors(s, *schedule, invalid, departed, same_ids);
    rebuilt->block_compute(1, depart, s.tau * 8 + 1);
    rebuilt->ledger().forfeit(1);
    std::vector<std::uint8_t> mask(s.num_tasks(), 0);
    std::size_t lost = 0;
    for (std::size_t t = 0; t < mask.size(); ++t) {
      if (invalid[t] == 0 || !schedule->is_assigned(static_cast<TaskId>(t))) continue;
      ++lost;
      if (recovery == ChurnRecovery::Degrade) mask[t] = 1;
    }
    ASSERT_GT(lost, 0u) << "the departure cost no work";
    if (recovery == ChurnRecovery::Degrade) params.secondary_only = &mask;
    drive_checked_window(s, params, *rebuilt, process, s.tau + 1, tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.builds, 0u);
  EXPECT_GT(tally.degraded, 0u) << "no build ran under the degrade mask";
  EXPECT_GT(tally.promoted, 0u) << "no pending task was promoted";
}

INSTANTIATE_TEST_SUITE_P(Variants, SlrhActivationIndexProperty,
                         ::testing::Values(SlrhVariant::V1, SlrhVariant::V2,
                                           SlrhVariant::V3),
                         [](const auto& p) { return to_string(p.param).substr(5); });

// A cross-machine transfer longer than H: the child's bound
// max(A, clock + D) stays beyond clock + H at every clock, so the index
// keeps it in its side list, evaluated at each build. Task 0 (10 s) feeds
// task 1 through 200 Mbit on 8 Mbit/s links: 25 s, 250 cycles > H = 100.
// Task 1 is too big for machine 0's battery, so only machine 1 can pool it.
TEST(SlrhActivationIndex, TransferLongerThanHorizonStaysDeadInSideList) {
  auto s = test::make_scenario(sim::GridConfig::make(2, 0), 2, {{0, 1, 200e6}},
                               {{10.0, 1000.0}, {10.0, 10.0}}, 100000);
  SlrhParams params = default_params(SlrhVariant::V1);
  const ScenarioCache cache(s);
  const ObjectiveTotals totals = objective_totals(s);
  auto schedule = make_schedule(s);
  commit_placement(s, *schedule,
                   plan_placement(s, *schedule, 0, 0, VersionKind::Primary, 0));
  const Cycles finish = schedule->assignment(0).finish;
  ASSERT_EQ(finish, 100);

  ReadyFrontier frontier(s, *schedule);
  GatherRows rows(s.num_tasks(), s.num_machines());
  CandidateBatch batch;
  const ParentTerms& terms = rows.terms(cache, s, *schedule, 1, 1);
  ASSERT_GT(terms.transfer_max, params.horizon);
  const Cycles a = terms.arrival_base;
  const Cycles d = terms.transfer_max;
  EXPECT_EQ(a, finish + d);

  // At clock 0 the bound is A; once clock + D passes A it tracks the clock.
  for (const Cycles clock : {Cycles{0}, Cycles{100}, a - d + 50, Cycles{5000}}) {
    SCOPED_TRACE("clock " + std::to_string(clock));
    frontier.advance_to(clock);
    const SlrhPool lean = build_slrh_pool_batched(s, cache, frontier, *schedule, params,
                                                  totals, 1, clock, rows, batch,
                                                  nullptr, nullptr, false);
    EXPECT_EQ(lean.live, 0u);
    EXPECT_FALSE(lean.empty()) << "an admitted dead slot keeps the pool non-empty";
    EXPECT_EQ(lean.dead_min_arrival, std::max(a, clock + d));
    const SlrhPool full = build_slrh_pool_batched(s, cache, frontier, *schedule, params,
                                                  totals, 1, clock, rows, batch);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full.slots[0].task, 1);
    EXPECT_EQ(full.slots[0].arrival_lb, std::max(a, clock + d));
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
