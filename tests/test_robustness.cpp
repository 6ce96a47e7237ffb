#include "core/robustness.hpp"

#include <gtest/gtest.h>

#include "core/heuristics.hpp"
#include "core/validate.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

workload::Scenario scenario(std::size_t num_tasks = 48) {
  return test::small_suite_scenario(sim::GridCase::A, num_tasks);
}

MappingResult complete_mapping(const workload::Scenario& s) {
  const auto result = run_heuristic(HeuristicKind::Slrh1, s, Weights::make(0.6, 0.3));
  EXPECT_TRUE(result.complete);
  return result;
}

TEST(PerturbEtc, ScalesEveryEntryWithinTruncation) {
  const auto s = scenario();
  NoiseParams params;
  params.cv = 0.3;
  const auto actual = perturb_etc(s, params, 7);
  for (std::size_t i = 0; i < s.num_tasks(); ++i) {
    for (std::size_t j = 0; j < s.num_machines(); ++j) {
      const auto t = static_cast<TaskId>(i);
      const auto m = static_cast<MachineId>(j);
      const double factor = actual.etc.seconds(t, m) / s.etc.seconds(t, m);
      EXPECT_GE(factor, params.min_factor - 1e-9);
      EXPECT_LE(factor, params.max_factor + 1e-9);
    }
  }
}

TEST(PerturbEtc, DeterministicInSeed) {
  const auto s = scenario();
  const auto a = perturb_etc(s, NoiseParams{}, 5);
  const auto b = perturb_etc(s, NoiseParams{}, 5);
  EXPECT_DOUBLE_EQ(a.etc.seconds(0, 0), b.etc.seconds(0, 0));
  const auto c = perturb_etc(s, NoiseParams{}, 6);
  EXPECT_NE(a.etc.seconds(0, 0), c.etc.seconds(0, 0));
}

TEST(PerturbEtc, ParamValidation) {
  const auto s = scenario(8);
  NoiseParams params;
  params.cv = 0.0;
  EXPECT_THROW(perturb_etc(s, params, 1), PreconditionError);
  params = NoiseParams{};
  params.min_factor = 5.0;  // > max
  EXPECT_THROW(perturb_etc(s, params, 1), PreconditionError);
}

TEST(Replay, ZeroNoiseReproducesFeasibility) {
  // Replaying against the SAME durations keeps the mapping feasible (starts
  // may only shift earlier: replay appends without SLRH's clock idle gaps).
  const auto s = scenario();
  const auto mapping = complete_mapping(s);
  const auto replayed = replay_with_actuals(s, s, *mapping.schedule);
  EXPECT_TRUE(replayed.executed);
  EXPECT_TRUE(replayed.within_tau);
  EXPECT_EQ(replayed.completed, s.num_tasks());
  EXPECT_LE(replayed.aet, mapping.aet);
  EXPECT_EQ(replayed.planned_aet, mapping.aet);
}

TEST(Replay, ReplayedScheduleValidatesAgainstActualScenario) {
  const auto s = scenario();
  const auto mapping = complete_mapping(s);
  const auto actual = perturb_etc(s, NoiseParams{}, 11);
  const auto replayed = replay_with_actuals(s, actual, *mapping.schedule);
  ValidateOptions options;
  options.require_complete = replayed.executed;
  options.require_within_tau = false;
  const auto report = validate_schedule(actual, *replayed.schedule, options);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Replay, PreservesMachineAndVersionDecisions) {
  const auto s = scenario();
  const auto mapping = complete_mapping(s);
  // Seed 12 is a draw under which every battery holds out (seed 13, for
  // one, kills a machine mid-replay).
  const auto actual = perturb_etc(s, NoiseParams{}, 12);
  const auto replayed = replay_with_actuals(s, actual, *mapping.schedule);
  ASSERT_TRUE(replayed.executed) << "energy death under this noise draw";
  for (TaskId t = 0; t < static_cast<TaskId>(s.num_tasks()); ++t) {
    EXPECT_EQ(replayed.schedule->assignment(t).machine,
              mapping.schedule->assignment(t).machine);
    EXPECT_EQ(replayed.schedule->assignment(t).version,
              mapping.schedule->assignment(t).version);
  }
}

TEST(Replay, SystematicOverrunStretchesAet) {
  // A 50 % overrun kills a battery under the default (time-leaning) mapping
  // for every noise draw, so map with energy-leaning weights: the headroom
  // they leave lets the stretched replay run to completion.
  const auto s = scenario();
  const auto mapping = run_heuristic(HeuristicKind::Slrh1, s, Weights::make(0.3, 0.5));
  ASSERT_TRUE(mapping.complete);
  NoiseParams params;
  params.bias = 1.5;  // 50 % systematic underestimation
  params.cv = 0.05;
  const auto actual = perturb_etc(s, params, 17);
  const auto replayed = replay_with_actuals(s, actual, *mapping.schedule);
  ASSERT_TRUE(replayed.executed) << "energy death under this noise draw";
  EXPECT_GT(replayed.aet, replayed.planned_aet);
}

TEST(Replay, SystematicSpeedupShrinksAet) {
  const auto s = scenario();
  const auto mapping = complete_mapping(s);
  NoiseParams params;
  params.bias = 0.6;
  params.cv = 0.05;
  const auto actual = perturb_etc(s, params, 19);
  const auto replayed = replay_with_actuals(s, actual, *mapping.schedule);
  ASSERT_TRUE(replayed.executed);  // cheaper than planned: energy must fit
  EXPECT_LT(replayed.aet, replayed.planned_aet);
  EXPECT_TRUE(replayed.within_tau);
}

TEST(Replay, RequiresCompleteMapping) {
  const auto s = scenario();
  sim::Schedule incomplete(s.grid, s.num_tasks());
  EXPECT_THROW(replay_with_actuals(s, s, incomplete), PreconditionError);
}

TEST(Replay, JointCommDemandOnOneSourceIsAggregated) {
  // Regression: two parents co-located on a nearly-drained machine must pay
  // for BOTH output transfers from the same battery. The guard used to check
  // each transfer independently against the same pre-charge availability —
  // both "fit", then the second add_comm overdrew the ledger and threw.
  //
  // Slow machine: B = 58, E = 0.001 u/s, C = 0.002 u/s, BW = 4e6 bps.
  // Each 4e7-bit edge: 10 s transfer, 0.02 units from the sender. Actual
  // executions of 28985 s x 2 parents spend 57.97, leaving 0.03 on m0 —
  // enough for either transfer alone, not for both (0.04).
  const auto grid = sim::GridConfig::make(0, 2);
  const std::vector<test::EdgeSpec> edges = {{0, 2, 4.0e7}, {1, 2, 4.0e7}};
  const std::vector<std::vector<double>> estimated_etc = {
      {1000.0, 9999.0}, {1000.0, 9999.0}, {9999.0, 100.0}};
  auto actual_etc = estimated_etc;
  actual_etc[0][0] = 28985.0;
  actual_etc[1][0] = 28985.0;
  const Cycles tau = 10'000'000;
  const auto estimated = test::make_scenario(grid, 3, edges, estimated_etc, tau);
  const auto actual = test::make_scenario(grid, 3, edges, actual_etc, tau);

  sim::Schedule planned(estimated.grid, 3);
  planned.add_assignment(0, 0, VersionKind::Primary, 0, 10000, 1.0);
  planned.add_assignment(1, 0, VersionKind::Primary, 10000, 10000, 1.0);
  planned.add_comm(0, 2, 0, 1, 20000, 100, 4.0e7, 0.02);
  planned.add_comm(1, 2, 0, 1, 20100, 100, 4.0e7, 0.02);
  planned.add_assignment(2, 1, VersionKind::Primary, 20200, 1000, 0.1);
  ASSERT_TRUE(planned.complete());

  ReplayResult replayed;
  ASSERT_NO_THROW(replayed = replay_with_actuals(estimated, actual, planned));
  EXPECT_FALSE(replayed.executed);
  EXPECT_EQ(replayed.completed, 2u);  // both parents ran; the child could not
}

TEST(Replay, EnergyDeathIsReportedNotThrown) {
  // Massive systematic overrun: fast machines' batteries cannot pay for the
  // stretched executions; the replay must stop gracefully.
  const auto s = scenario();
  const auto mapping = complete_mapping(s);
  NoiseParams params;
  params.bias = 3.5;
  params.cv = 0.05;
  params.max_factor = 4.0;
  const auto actual = perturb_etc(s, params, 23);
  const auto replayed = replay_with_actuals(s, actual, *mapping.schedule);
  if (replayed.executed) GTEST_SKIP() << "instance absorbed the overrun";
  EXPECT_LT(replayed.completed, s.num_tasks());
  EXPECT_FALSE(replayed.robust());
}

}  // namespace
}  // namespace ahg::core
