#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/placement.hpp"
#include "core/validate.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

workload::Scenario base_scenario(std::size_t num_tasks = 96) {
  return test::small_suite_scenario(sim::GridCase::A, num_tasks);
}

ValidateOptions lax_options() {
  ValidateOptions lax;
  lax.require_complete = false;
  lax.require_within_tau = false;
  return lax;
}

/// What the loss model discards before any worst-case hold is re-taken: the
/// tasks phase 1 mapped to the lost machine plus their mapped descendants.
std::size_t lost_machine_spill(const workload::Scenario& s, const Weights& weights,
                               SlrhVariant variant, const MachineLossEvent& event) {
  SlrhParams params;
  params.variant = variant;
  params.weights = weights;
  const auto before = make_schedule(s);
  MappingResult stats;
  drive_slrh(s, params, *before, 0, event.time, stats);
  std::vector<char> spilled(s.num_tasks(), 0);
  std::vector<TaskId> stack;
  for (const TaskId t : before->assignment_order()) {
    if (before->assignment(t).machine != event.machine) continue;
    spilled[static_cast<std::size_t>(t)] = 1;
    stack.push_back(t);
  }
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    for (const TaskId child : s.dag.children(t)) {
      if (!before->is_assigned(child) || spilled[static_cast<std::size_t>(child)] != 0) {
        continue;
      }
      spilled[static_cast<std::size_t>(child)] = 1;
      stack.push_back(child);
    }
  }
  return static_cast<std::size_t>(std::count(spilled.begin(), spilled.end(), 1));
}

void expect_ancestor_closed(const workload::Scenario& s, const sim::Schedule& schedule) {
  for (const TaskId t : schedule.assignment_order()) {
    for (const TaskId parent : s.dag.parents(t)) {
      EXPECT_TRUE(schedule.is_assigned(parent))
          << "task " << t << " kept but parent " << parent << " missing";
    }
  }
}

TEST(AdaptAlpha, ShrinksWithLostCapacity) {
  const auto full = base_scenario();
  auto degraded = full;
  degraded.grid = full.grid.without_machine(1);
  degraded.etc = full.etc.without_machine(1);
  const Weights w = Weights::make(0.6, 0.2);
  const Weights adapted = adapt_alpha(w, full, degraded);
  EXPECT_LT(adapted.alpha, w.alpha);
  EXPECT_GE(adapted.beta, w.beta);  // beta takes a share of the freed weight
  EXPECT_NO_THROW(adapted.validate());
}

TEST(AdaptAlpha, IdenticalGridsLeaveWeightsUnchanged) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.2);
  const Weights adapted = adapt_alpha(w, s, s);
  EXPECT_NEAR(adapted.alpha, w.alpha, 1e-12);
  EXPECT_NEAR(adapted.beta, w.beta, 1e-12);
}

TEST(AdaptAlpha, LosingFastMachineCutsMoreThanSlow) {
  const auto full = base_scenario();
  auto no_fast = full;
  no_fast.grid = full.grid.without_machine(1);  // fast
  no_fast.etc = full.etc.without_machine(1);
  auto no_slow = full;
  no_slow.grid = full.grid.without_machine(3);  // slow
  no_slow.etc = full.etc.without_machine(3);
  const Weights w = Weights::make(0.6, 0.2);
  EXPECT_LT(adapt_alpha(w, full, no_fast).alpha, adapt_alpha(w, full, no_slow).alpha);
}

TEST(LossRun, ProducesValidScheduleOnDegradedGrid) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  EXPECT_EQ(outcome.degraded_scenario.num_machines(), s.num_machines() - 1);
  const auto report = validate_schedule(outcome.degraded_scenario,
                                        *outcome.result.schedule, lax_options());
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(LossRun, NoWorkOnLostMachineAfterLoss) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 0;
  event.time = s.tau / 3;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  // The final schedule lives on the degraded grid — it simply has no slot
  // for the lost machine; every assignment's machine id must be in range.
  const auto& schedule = *outcome.result.schedule;
  EXPECT_EQ(schedule.num_machines(), s.num_machines() - 1);
  for (const TaskId t : schedule.assignment_order()) {
    EXPECT_LT(schedule.assignment(t).machine,
              static_cast<MachineId>(schedule.num_machines()));
  }
}

TEST(LossRun, LossAtTimeZeroEqualsDegradedRun) {
  // Losing a machine before anything is scheduled must match running on the
  // degraded grid from scratch with the adapted weights.
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 1;
  event.time = 0;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  EXPECT_EQ(outcome.discarded, 0u);
  EXPECT_EQ(outcome.completed_on_lost_machine, 0u);

  SlrhParams params;
  params.weights = outcome.adapted_weights;
  const auto direct = run_slrh(outcome.degraded_scenario, params);
  EXPECT_EQ(outcome.result.t100, direct.t100);
  EXPECT_EQ(outcome.result.aet, direct.aet);
}

TEST(LossRun, DiscardedSetIsAncestorClosed) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 2;
  event.time = s.tau / 2;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  // Every assigned task's parents are assigned in the final schedule — the
  // validator checks this, but assert the specific property here too.
  expect_ancestor_closed(s, *outcome.result.schedule);
}

TEST(LossRun, LateLossPreservesMostWork) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent early;
  early.machine = 1;
  early.time = s.tau / 8;
  MachineLossEvent late;
  late.machine = 1;
  late.time = s.tau;
  const auto early_outcome = run_slrh_with_loss(s, w, early);
  const auto late_outcome = run_slrh_with_loss(s, w, late);
  // A loss at tau (after the whole window) can only discard work that was
  // actually placed on the machine; an early loss leaves more time for the
  // survivors to recover. Both must remain valid; the late loss discards at
  // least as much completed work.
  EXPECT_GE(late_outcome.completed_on_lost_machine,
            early_outcome.completed_on_lost_machine);
}

TEST(LossRun, AdaptFlagControlsWeights) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  const auto adapted = run_slrh_with_loss(s, w, event, SlrhVariant::V1, {}, true);
  const auto frozen = run_slrh_with_loss(s, w, event, SlrhVariant::V1, {}, false);
  EXPECT_LT(adapted.adapted_weights.alpha, w.alpha);
  EXPECT_DOUBLE_EQ(frozen.adapted_weights.alpha, w.alpha);
}

TEST(LossRun, ClockIsPassedThrough) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  SlrhClock coarse;
  coarse.dt = 1000;
  const auto fine_run = run_slrh_with_loss(s, w, event, SlrhVariant::V1, SlrhClock{});
  const auto coarse_run = run_slrh_with_loss(s, w, event, SlrhVariant::V1, coarse);
  // A 100x larger timestep must execute far fewer sweeps in both phases.
  EXPECT_LT(coarse_run.result.iterations * 10, fine_run.result.iterations + 10);
}

TEST(LossRun, RejectsBadEvents) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent bad;
  bad.machine = 99;
  bad.time = 10;
  EXPECT_THROW(run_slrh_with_loss(s, w, bad), PreconditionError);
  bad.machine = 0;
  bad.time = s.tau + 1;
  EXPECT_THROW(run_slrh_with_loss(s, w, bad), PreconditionError);
}

// A kept task's worst-case output hold can outgrow its machine's remaining
// battery: the hold it took at placement was settled cheaply or released
// on-machine, and the headroom was spent since. Re-taking it must discard
// the task (and its descendants) instead of overdrawing the ledger.
void expect_unaffordable_hold_discarded(const workload::Scenario& s, SlrhVariant variant,
                                        const MachineLossEvent& event, bool adapt) {
  const Weights w = Weights::make(0.6, 0.3);
  const auto outcome = run_slrh_with_loss(s, w, event, variant, {}, adapt);
  const auto report = validate_schedule(outcome.degraded_scenario,
                                        *outcome.result.schedule, lax_options());
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_GT(outcome.discarded, lost_machine_spill(s, w, variant, event));
}

TEST(LossRun, UnaffordableHoldIsDiscardedSlrh1) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 96, 20040426, 1, 0);
  MachineLossEvent event;
  event.machine = 3;
  event.time = s.tau / 2;
  expect_unaffordable_hold_discarded(s, SlrhVariant::V1, event, /*adapt=*/false);
}

TEST(LossRun, UnaffordableHoldIsDiscardedSlrh3) {
  const auto s = test::small_suite_scenario(sim::GridCase::B, 48, 20040426, 2, 0);
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  expect_unaffordable_hold_discarded(s, SlrhVariant::V3, event, /*adapt=*/true);
}

// Every loss, wherever it lands, leaves a lax-valid, ancestor-closed
// schedule on the degraded grid and discards at least the lost machine's
// work and its mapped descendants.
class LossProperty
    : public ::testing::TestWithParam<std::tuple<sim::GridCase, std::size_t, SlrhVariant>> {};

TEST_P(LossProperty, ScheduleStaysValidAndAncestorClosed) {
  const auto [grid_case, etc_index, variant] = GetParam();
  const auto s = test::small_suite_scenario(grid_case, 96, 20040426, etc_index, 0);
  const Weights w = Weights::make(0.6, 0.3);
  for (const MachineId machine : {1, 2}) {
    for (const Cycles time : {s.tau / 4, s.tau / 2}) {
      SCOPED_TRACE("machine " + std::to_string(machine) + " at " + std::to_string(time));
      MachineLossEvent event;
      event.machine = machine;
      event.time = time;
      const auto outcome = run_slrh_with_loss(s, w, event, variant, {}, /*adapt=*/true);
      const auto& schedule = *outcome.result.schedule;
      const auto report =
          validate_schedule(outcome.degraded_scenario, schedule, lax_options());
      EXPECT_TRUE(report.ok()) << report.str();
      expect_ancestor_closed(s, schedule);
      EXPECT_GE(outcome.discarded, lost_machine_spill(s, w, variant, event));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CasesEtcsVariants, LossProperty,
    ::testing::Combine(::testing::Values(sim::GridCase::A, sim::GridCase::B,
                                         sim::GridCase::C),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2}),
                       ::testing::Values(SlrhVariant::V1, SlrhVariant::V2,
                                         SlrhVariant::V3)));

}  // namespace
}  // namespace ahg::core
