// SweepContext unit contract (epoch bookkeeping, verdict lifecycle) plus the
// randomized property test for the cross-tick skip verdicts: over random
// scenarios, seeds and churn, pool_reuse on and off must produce
// bit-identical schedules, and the epoch scheme must retire verdicts exactly
// when a commit could have changed a machine's pool.

#include <gtest/gtest.h>

#include <vector>

#include "core/churn.hpp"
#include "core/sweep.hpp"
#include "support/rng.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

core::PlacementPlan plan_on(MachineId machine,
                            std::vector<MachineId> senders = {}) {
  core::PlacementPlan plan;
  plan.task = 0;
  plan.machine = machine;
  for (const MachineId sender : senders) {
    core::CommPlan comm;
    comm.parent = 1;
    comm.from_machine = sender;
    plan.comms.push_back(comm);
  }
  return plan;
}

TEST(Sweep, NoteCommitBumpsTouchedEnergyEpochs) {
  core::SweepContext sweep(4);
  for (MachineId m = 0; m < 4; ++m) EXPECT_EQ(sweep.energy_epoch(m), 0u);

  // Local commit on machine 2: only machine 2's ledger is touched.
  sweep.note_commit(plan_on(2));
  EXPECT_EQ(sweep.energy_epoch(2), 1u);
  EXPECT_EQ(sweep.energy_epoch(0), 0u);
  EXPECT_EQ(sweep.energy_epoch(1), 0u);
  EXPECT_EQ(sweep.energy_epoch(3), 0u);

  // Commit on 0 with transfers from 1 and 3: executing machine plus every
  // sender is bumped; machine 2 is untouched.
  sweep.note_commit(plan_on(0, {1, 3}));
  EXPECT_EQ(sweep.energy_epoch(0), 1u);
  EXPECT_EQ(sweep.energy_epoch(1), 1u);
  EXPECT_EQ(sweep.energy_epoch(3), 1u);
  EXPECT_EQ(sweep.energy_epoch(2), 1u);
}

TEST(Sweep, VerdictSkipsOnlyWhileEpochsStandAndHorizonShort) {
  core::SweepContext sweep(2);
  const Cycles horizon = 100;

  // No verdict recorded yet: never skip.
  EXPECT_FALSE(sweep.can_skip(0, 0, horizon, 0));

  // Scope proved nothing arrives before cycle 500.
  sweep.record_verdict(0, 500, /*frontier_revision=*/7);

  // Same epochs, clock + horizon below the proven arrival: skip.
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
  core::SweepContext sweep(3);
  sweep.record_verdict(0, core::SweepContext::kNoArrival, 3);
  sweep.record_verdict(1, core::SweepContext::kNoArrival, 3);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, 3));
  EXPECT_TRUE(sweep.can_skip(1, 0, 100, 3));

  // A commit executing on machine 0 with a transfer sent from machine 1
  // touches both energy ledgers: both verdicts retire, machine 2 would not.
  sweep.note_commit(plan_on(0, {1}));
  EXPECT_FALSE(sweep.can_skip(0, 0, 100, 3));
  EXPECT_FALSE(sweep.can_skip(1, 0, 100, 3));

  // Re-recording at the new epochs makes the verdict live again.
  sweep.record_verdict(0, core::SweepContext::kNoArrival, 3);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, 3));
}

TEST(Sweep, EmptyPoolVerdictSkipsAtEveryClock) {
  core::SweepContext sweep(1);
  sweep.record_verdict(0, core::SweepContext::kNoArrival, 0);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, 0));
  EXPECT_TRUE(sweep.can_skip(0, 1'000'000'000, 100, 0));
}

// ---------------------------------------------------------------------------
// Randomized epoch-invalidation property: across random small scenarios
// (varying seed, size, grid case, release spread, with and without a mid-run
// departure), the pool_reuse sweep must produce the same schedule as the
// rebuild-everything sweep — bit-identical assignments, counts and energy —
// and the reuse ledger must balance (built + reused == serial builds). This is the test that catches a missing epoch bump: an energy or
// frontier change the scheme failed to count makes a verdict survive a
// commit that changed the pool, and the skipped scope diverges.

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
