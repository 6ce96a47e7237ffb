// SweepContext unit contract (verdict lifecycle, retirement by a frontier
// revision bump) plus the randomized property test for the cross-tick skip
// verdicts: over random scenarios, seeds and churn, pool_reuse on and off
// must produce bit-identical schedules, so the revision must retire verdicts
// whenever a commit or join could have changed a machine's pool.

#include <gtest/gtest.h>

#include <vector>

#include "core/churn.hpp"
#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "core/sweep.hpp"
#include "support/rng.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

TEST(Sweep, VerdictSkipsOnlyWhileEpochsStandAndHorizonShort) {
  core::SweepContext sweep(2);
  const Cycles horizon = 100;

  // No verdict recorded yet: never skip.
  EXPECT_FALSE(sweep.can_skip(0, 0, horizon, 0));

  // Scope proved nothing arrives before cycle 500.
  sweep.record_verdict(0, 500, /*frontier_revision=*/7);

  // Same revision, clock + horizon below the proven arrival: skip.
  EXPECT_TRUE(sweep.can_skip(0, 0, horizon, 7));
  EXPECT_TRUE(sweep.can_skip(0, 399, horizon, 7));
  // clock + horizon reaches the arrival: the pool could now map it.
  EXPECT_FALSE(sweep.can_skip(0, 400, horizon, 7));
  // Frontier moved (new ready task anywhere): verdict is stale.
  EXPECT_FALSE(sweep.can_skip(0, 0, horizon, 8));
  // Other machines never inherit the verdict.
  EXPECT_FALSE(sweep.can_skip(1, 0, horizon, 7));
}

TEST(Sweep, CommitOnMachineRetiresItsVerdict) {
  const auto scenario = test::two_fast_independent(4);
  auto schedule = core::make_schedule(scenario);
  core::ReadyFrontier frontier(scenario, *schedule);
  frontier.advance_to(0);

  core::SweepContext sweep(scenario.num_machines());
  const std::uint64_t revision = frontier.revision();
  sweep.record_verdict(0, core::SweepContext::kNoArrival, revision);
  sweep.record_verdict(1, core::SweepContext::kNoArrival, revision);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, frontier.revision()));
  EXPECT_TRUE(sweep.can_skip(1, 0, 100, frontier.revision()));

  // A commit executing on machine 0, mirrored into the frontier as the
  // driver does, moves the revision: every verdict retires, machine 1's too,
  // though the commit left its battery alone.
  const auto plan =
      core::plan_placement(scenario, *schedule, 0, 0, VersionKind::Secondary, 0);
  core::commit_placement(scenario, *schedule, plan);
  frontier.on_commit(0);
  EXPECT_GT(frontier.revision(), revision);
  EXPECT_FALSE(sweep.can_skip(0, 0, 100, frontier.revision()));
  EXPECT_FALSE(sweep.can_skip(1, 0, 100, frontier.revision()));

  // Re-recording at the new revision makes the verdict live again.
  sweep.record_verdict(0, core::SweepContext::kNoArrival, frontier.revision());
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, frontier.revision()));
}

TEST(Sweep, EmptyPoolVerdictSkipsAtEveryClock) {
  core::SweepContext sweep(1);
  sweep.record_verdict(0, core::SweepContext::kNoArrival, 0);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, 0));
  EXPECT_TRUE(sweep.can_skip(0, 1'000'000'000, 100, 0));
}

// ---------------------------------------------------------------------------
// Randomized invalidation property: across random small scenarios
// (varying seed, size, grid case, release spread, with and without a mid-run
// departure), the pool_reuse sweep must produce the same schedule as the
// rebuild-everything sweep — bit-identical assignments, counts and energy —
// and the reuse ledger must balance (built + reused == serial builds). A
// commit or join the frontier failed to count would let a verdict survive a
// change to the pool and the skipped scope diverge. These small scenarios
// do not reach every such scope: a frontier without the commit bump passes
// here, and ReadyFrontier.RevisionMovesOnEveryCommitAndJoin and
// Determinism.SlrhPoolReuseMatchesRebuild are the tests that catch it.

void expect_identical(const core::MappingResult& serial,
                      const core::MappingResult& fast,
                      const workload::Scenario& scenario, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(serial.complete, fast.complete);
  EXPECT_EQ(serial.assigned, fast.assigned);
  EXPECT_EQ(serial.t100, fast.t100);
  EXPECT_EQ(serial.aet, fast.aet);
  EXPECT_EQ(serial.tec, fast.tec);  // exact: bit-identical doubles
  ASSERT_NE(serial.schedule, nullptr);
  ASSERT_NE(fast.schedule, nullptr);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    ASSERT_EQ(serial.schedule->is_assigned(t), fast.schedule->is_assigned(t))
        << "task " << t;
    if (!serial.schedule->is_assigned(t)) continue;
    const auto& a = serial.schedule->assignment(t);
    const auto& b = fast.schedule->assignment(t);
    EXPECT_EQ(a.machine, b.machine) << "task " << t;
    EXPECT_EQ(a.version, b.version) << "task " << t;
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_EQ(a.energy, b.energy) << "task " << t;  // exact
  }
}

TEST(Sweep, RandomizedFlagCombosMatchSerial) {
  SplitMix64 meta_rng(0xA5EEDC0FFEEull);
  const sim::GridCase cases[] = {sim::GridCase::A, sim::GridCase::B,
                                 sim::GridCase::C};
  for (int trial = 0; trial < 8; ++trial) {
    const auto grid_case = cases[meta_rng.next() % 3];
    const auto num_tasks = 32 + static_cast<std::size_t>(meta_rng.next() % 3) * 16;
    const auto seed = static_cast<std::uint64_t>(1000 + meta_rng.next() % 9000);
    auto scenario = test::small_suite_scenario(grid_case, num_tasks, seed);
    if (trial % 2 == 0) {
      // Half the trials add release spread: frontier revisions then churn
      // from arrivals as well as commits.
      scenario.releases = workload::generate_release_times(
          workload::ReleaseParams{0.25}, scenario.dag, scenario.tau,
          seed + 17);
    }
    const bool with_churn = trial % 3 == 0;
    if (with_churn) {
      scenario.machine_windows.assign(scenario.num_machines(),
                                      workload::Scenario::MachineWindow{});
      scenario.machine_windows[1].depart = scenario.tau / 8;
    }
    const auto variant = trial % 2 == 0 ? core::SlrhVariant::V3
                                        : core::SlrhVariant::V2;
    SCOPED_TRACE("trial " + std::to_string(trial) + " tasks " +
                 std::to_string(num_tasks) + " seed " + std::to_string(seed));

    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    params.pool_reuse = false;
    const auto serial = core::run_slrh_with_churn(scenario, params).result;
    EXPECT_EQ(serial.pools_reused, 0u);

    params.pool_reuse = true;
    const auto fast = core::run_slrh_with_churn(scenario, params).result;
    expect_identical(serial, fast, scenario, "reuse=on");
    EXPECT_EQ(fast.pools_built + fast.pools_reused, serial.pools_built);
  }
}

}  // namespace
}  // namespace ahg
