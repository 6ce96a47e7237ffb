// Cross-cutting property suites: conservation laws and monotonicities that
// must hold across heuristics, scenarios, and parameter choices.

#include <gtest/gtest.h>

#include <tuple>

#include "core/feasibility.hpp"
#include "core/heuristics.hpp"
#include "core/tuner.hpp"
#include "core/upper_bound.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

class HeuristicInvariants
    : public ::testing::TestWithParam<std::tuple<HeuristicKind, std::uint64_t>> {};

TEST_P(HeuristicInvariants, NoReservationOutlivesACompleteMapping) {
  // Every worst-case communication reservation is settled or released by the
  // time all subtasks are mapped — leftover holds would mean phantom energy.
  // The weights are chosen so every (kind, seed) pair maps completely (at
  // 0.7/0.25 SLRH-1 strands work on seed 9); a fixture drift that breaks
  // that fails here instead of silently skipping.
  const auto [kind, seed] = GetParam();
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48, seed);
  const auto result = run_heuristic(kind, s, Weights::make(0.6, 0.3));
  ASSERT_TRUE(result.complete) << to_string(kind) << " seed " << seed;
  for (std::size_t j = 0; j < s.num_machines(); ++j) {
    EXPECT_NEAR(result.schedule->energy().reserved(static_cast<MachineId>(j)), 0.0,
                1e-9)
        << to_string(kind) << " machine " << j;
  }
}

TEST_P(HeuristicInvariants, EnergyConservation) {
  // TEC == sum of per-assignment energies + per-transfer energies.
  const auto [kind, seed] = GetParam();
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48, seed);
  const auto result = run_heuristic(kind, s, Weights::make(0.7, 0.25));
  double total = 0.0;
  for (const TaskId t : result.schedule->assignment_order()) {
    total += result.schedule->assignment(t).energy;
  }
  for (const auto& ev : result.schedule->comm_events()) total += ev.energy;
  EXPECT_NEAR(total, result.tec, 1e-6) << to_string(kind);
}

TEST_P(HeuristicInvariants, AetIsTheLastAssignmentFinish) {
  const auto [kind, seed] = GetParam();
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48, seed);
  const auto result = run_heuristic(kind, s, Weights::make(0.7, 0.25));
  Cycles last = 0;
  for (const TaskId t : result.schedule->assignment_order()) {
    last = std::max(last, result.schedule->assignment(t).finish);
  }
  EXPECT_EQ(result.aet, last) << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, HeuristicInvariants,
    ::testing::Combine(::testing::Values(HeuristicKind::Slrh1, HeuristicKind::Slrh2,
                                         HeuristicKind::Slrh3, HeuristicKind::MaxMax),
                       ::testing::Values(2u, 9u, 20040426u)));

TEST(UpperBoundMonotonicity, LargerTauNeverLowersTheBound) {
  auto s = test::small_suite_scenario(sim::GridCase::C, 64);
  const auto tight = compute_upper_bound(s);
  s.tau *= 2;
  const auto loose = compute_upper_bound(s);
  EXPECT_GE(loose.bound, tight.bound);
}

TEST(UpperBoundMonotonicity, MoreMachinesNeverLowerTheBound) {
  workload::SuiteParams p;
  p.num_tasks = 64;
  p.num_etc = 1;
  p.num_dag = 1;
  const workload::ScenarioSuite suite(p);
  const auto a = compute_upper_bound(suite.make(sim::GridCase::A, 0, 0));
  const auto b = compute_upper_bound(suite.make(sim::GridCase::B, 0, 0));
  const auto c = compute_upper_bound(suite.make(sim::GridCase::C, 0, 0));
  EXPECT_GE(a.bound, b.bound);
  EXPECT_GE(a.bound, c.bound);
}

TEST(VersionInvariant, SecondaryStrictlyShorterThanPrimaryEverywhere) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 64);
  for (std::size_t i = 0; i < s.num_tasks(); ++i) {
    for (std::size_t j = 0; j < s.num_machines(); ++j) {
      const auto task = static_cast<TaskId>(i);
      const auto machine = static_cast<MachineId>(j);
      EXPECT_LT(s.exec_cycles(task, machine, VersionKind::Secondary),
                s.exec_cycles(task, machine, VersionKind::Primary));
    }
  }
}

TEST(TunerReproducibility, BestPointRerunsIdentically) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 48);
  const WeightedSolver solver = [&](const Weights& w) {
    return run_heuristic(HeuristicKind::Slrh1, s, w);
  };
  TunerParams params;
  params.coarse_step = 0.25;
  params.fine_step = 0.0;
  params.parallel = false;
  const auto outcome = tune_weights(solver, params);
  ASSERT_TRUE(outcome.found);
  const auto rerun = solver(Weights::make(outcome.alpha, outcome.beta));
  EXPECT_EQ(rerun.t100, outcome.best.t100);
  EXPECT_EQ(rerun.aet, outcome.best.aet);
  EXPECT_DOUBLE_EQ(rerun.tec, outcome.best.tec);
}

TEST(DtInvariant, FinerTimestepNeverHurtsMuch) {
  // Figure 2's plateau: dT in the paper's mid-range gives near-identical
  // T100 (within a small tolerance), while the sweep count scales ~1/dT.
  const auto s = test::small_suite_scenario(sim::GridCase::A, 64);
  SlrhParams fine;
  fine.weights = Weights::make(0.6, 0.3);
  fine.dt = 5;
  SlrhParams mid = fine;
  mid.dt = 20;
  const auto rf = run_slrh(s, fine);
  const auto rm = run_slrh(s, mid);
  EXPECT_GT(rf.iterations, rm.iterations * 2);
  const auto diff = rf.t100 > rm.t100 ? rf.t100 - rm.t100 : rm.t100 - rf.t100;
  EXPECT_LE(diff, s.num_tasks() / 8);
}

TEST(CrossHeuristic, AllShareTheSamePoolAdmissionSemantics) {
  // SLRH's admission must be indifferent to the heuristic wrapper: the same
  // (schedule, task, machine) admits identically regardless of who asks.
  const auto s = test::small_suite_scenario(sim::GridCase::A, 32);
  sim::Schedule schedule(s.grid, s.num_tasks());
  for (std::size_t i = 0; i < s.num_tasks(); ++i) {
    const auto task = static_cast<TaskId>(i);
    const bool root = s.dag.parents(task).empty();
    EXPECT_EQ(slrh_pool_admissible(s, schedule, task, 0), root);
  }
}

}  // namespace
}  // namespace ahg::core
