// The uniform heuristic handle and the experiment runner pipeline.

#include <gtest/gtest.h>

#include "core/heuristics.hpp"
#include "core/runner.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

TEST(Heuristics, NamesMatchPaper) {
  EXPECT_EQ(to_string(HeuristicKind::Slrh1), "SLRH-1");
  EXPECT_EQ(to_string(HeuristicKind::Slrh2), "SLRH-2");
  EXPECT_EQ(to_string(HeuristicKind::Slrh3), "SLRH-3");
  EXPECT_EQ(to_string(HeuristicKind::MaxMax), "Max-Max");
}

TEST(Heuristics, ReportedSetDropsSlrh2) {
  const auto reported = reported_heuristics();
  ASSERT_EQ(reported.size(), 3u);
  for (const auto kind : reported) EXPECT_NE(kind, HeuristicKind::Slrh2);
  EXPECT_EQ(all_heuristics().size(), 4u);
}

TEST(Heuristics, RunHeuristicDispatchesAllKinds) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 24);
  const Weights w = Weights::make(0.7, 0.2);
  for (const auto kind : all_heuristics()) {
    const auto result = run_heuristic(kind, s, w);
    EXPECT_GT(result.assigned, 0u) << to_string(kind);
    EXPECT_NE(result.schedule, nullptr) << to_string(kind);
    EXPECT_GE(result.wall_seconds, 0.0);
  }
}

TEST(Heuristics, SlrhClockIsPassedThrough) {
  const auto s = test::small_suite_scenario(sim::GridCase::A, 24);
  const Weights w = Weights::make(0.7, 0.2);
  SlrhClock coarse;
  coarse.dt = 1000;
  const auto fine_run = run_heuristic(HeuristicKind::Slrh1, s, w, SlrhClock{});
  const auto coarse_run = run_heuristic(HeuristicKind::Slrh1, s, w, coarse);
  // A 100x larger timestep must execute far fewer sweeps.
  EXPECT_LT(coarse_run.iterations * 10, fine_run.iterations + 10);
}

EvaluationParams fast_eval_params() {
  EvaluationParams params;
  params.tuner.coarse_step = 0.25;
  params.tuner.fine_step = 0.0;
  params.tuner.parallel = false;
  return params;
}

workload::ScenarioSuite tiny_suite() {
  workload::SuiteParams p;
  p.num_tasks = 24;
  p.num_etc = 2;
  p.num_dag = 2;
  p.master_seed = 5;
  return workload::ScenarioSuite(p);
}

TEST(Runner, EvaluateCaseCoversFullGrid) {
  const auto suite = tiny_suite();
  const auto summary =
      evaluate_case(suite, sim::GridCase::A, HeuristicKind::Slrh1, fast_eval_params());
  EXPECT_EQ(summary.scenarios.size(), 4u);  // 2 ETC x 2 DAG
  EXPECT_EQ(summary.grid_case, sim::GridCase::A);
  EXPECT_EQ(summary.heuristic, HeuristicKind::Slrh1);
  EXPECT_GT(summary.feasible_count, 0u);
  EXPECT_EQ(summary.t100.count(), summary.feasible_count);
  for (const auto& eval : summary.scenarios) {
    EXPECT_GT(eval.upper_bound, 0u);
    if (eval.tune.found) {
      EXPECT_LE(eval.tune.best.t100, eval.upper_bound);
    }
  }
}

TEST(Runner, ProgressCallbackFires) {
  const auto suite = tiny_suite();
  auto params = fast_eval_params();
  std::size_t calls = 0;
  params.progress = [&](const std::string& line) {
    ++calls;
    EXPECT_NE(line.find("Case A"), std::string::npos);
  };
  evaluate_case(suite, sim::GridCase::A, HeuristicKind::MaxMax, params);
  EXPECT_EQ(calls, 4u);
}

TEST(Runner, MatrixLookup) {
  const auto suite = tiny_suite();
  const std::vector<sim::GridCase> cases = {sim::GridCase::A, sim::GridCase::C};
  const std::vector<HeuristicKind> kinds = {HeuristicKind::Slrh1,
                                            HeuristicKind::MaxMax};
  const auto matrix = evaluate_matrix(suite, cases, kinds, fast_eval_params());
  EXPECT_EQ(matrix.cells.size(), 4u);
  const auto& cell = matrix.cell(sim::GridCase::C, HeuristicKind::MaxMax);
  EXPECT_EQ(cell.grid_case, sim::GridCase::C);
  EXPECT_EQ(cell.heuristic, HeuristicKind::MaxMax);
  EXPECT_THROW(matrix.cell(sim::GridCase::B, HeuristicKind::Slrh1), PreconditionError);
}

TEST(Runner, VsBoundNeverExceedsOne) {
  const auto suite = tiny_suite();
  const auto summary =
      evaluate_case(suite, sim::GridCase::A, HeuristicKind::MaxMax, fast_eval_params());
  if (summary.vs_bound.count() > 0) {
    EXPECT_LE(summary.vs_bound.max(), 1.0 + 1e-9);
    EXPECT_GT(summary.vs_bound.min(), 0.0);
  }
}

}  // namespace
}  // namespace ahg::core
