// ReadyFrontier invariant tests: the incrementally maintained ready set (as
// test::ready_tasks reads it off the joined() log) and rejection tallies
// must equal, at every point of a random playout, what a brute-force pass
// over all subtasks computes from scratch (the original scan the frontier
// replaces); and the revision, the skip verdicts' one invalidation signal,
// must move on every commit and every join.

#include <gtest/gtest.h>

#include <vector>

#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "support/rng.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

/// What a full pass over all subtasks says the frontier state should be.
struct BruteForce {
  std::vector<TaskId> ready;
  std::size_t unreleased = 0;
  std::size_t assigned = 0;
  std::size_t parents = 0;

  static BruteForce at(const workload::Scenario& scenario,
                       const sim::Schedule& schedule, Cycles clock) {
    BruteForce bf;
    const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (scenario.release(t) > clock) {
        ++bf.unreleased;
      } else if (schedule.is_assigned(t)) {
        ++bf.assigned;
      } else if (!core::parents_assigned(scenario, schedule, t)) {
        ++bf.parents;
      } else {
        bf.ready.push_back(t);  // ascending task id, like the scan
      }
    }
    return bf;
  }
};

void expect_matches(const core::ReadyFrontier& frontier, const sim::Schedule& schedule,
                    const BruteForce& bf, Cycles clock) {
  EXPECT_EQ(test::ready_tasks(frontier, schedule), bf.ready)
      << "ready set diverged at clock " << clock;
  EXPECT_EQ(frontier.num_ready(), bf.ready.size()) << "at clock " << clock;
  EXPECT_EQ(frontier.num_unreleased(), bf.unreleased) << "at clock " << clock;
  EXPECT_EQ(frontier.num_assigned_released(), bf.assigned) << "at clock " << clock;
  EXPECT_EQ(frontier.num_parents_blocked(), bf.parents) << "at clock " << clock;
}

/// Commit one random ready task to a random energy-feasible machine, telling
/// the frontier. Returns false if nothing could be committed.
bool commit_random_ready(const workload::Scenario& scenario, sim::Schedule& schedule,
                         core::ReadyFrontier& frontier, Rng& rng, Cycles clock) {
  const std::vector<TaskId> ready = test::ready_tasks(frontier, schedule);
  if (ready.empty()) return false;
  const TaskId task =
      ready[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ready.size()) - 1))];
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  for (MachineId m = 0; m < num_machines; ++m) {
    if (!core::version_fits_energy(scenario, schedule, task, m,
                                   VersionKind::Secondary)) {
      continue;
    }
    const auto plan = core::plan_placement(scenario, schedule, task, m,
                                           VersionKind::Secondary, clock);
    core::commit_placement(scenario, schedule, plan);
    frontier.on_commit(task);
    return true;
  }
  return false;
}

TEST(ReadyFrontier, MatchesBruteForceUnderRandomPlayout) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  // Spread releases over the window so the release cursor actually works.
  scenario.releases = workload::generate_release_times(
      workload::ReleaseParams{0.4}, scenario.dag, scenario.tau, 7);

  auto schedule = core::make_schedule(scenario);
  core::ReadyFrontier frontier(scenario, *schedule);
  Rng rng(31);

  Cycles clock = 0;
  while (clock <= scenario.tau && !schedule->complete()) {
    frontier.advance_to(clock);
    expect_matches(frontier, *schedule, BruteForce::at(scenario, *schedule, clock),
                   clock);
    // A few commits per timestep, re-checking the invariants after each.
    const std::int64_t commits = rng.uniform_int(0, 3);
    for (std::int64_t c = 0; c < commits; ++c) {
      if (!commit_random_ready(scenario, *schedule, frontier, rng, clock)) break;
      expect_matches(frontier, *schedule, BruteForce::at(scenario, *schedule, clock),
                     clock);
    }
    clock += rng.uniform_int(1, 50);
  }
}

TEST(ReadyFrontier, InitialisesFromPartiallyFilledSchedule) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 32);
  auto schedule = core::make_schedule(scenario);

  // Pre-assign a prefix of the DAG in topological order (as a resumed
  // schedule would look after a replay).
  const auto order = scenario.dag.topological_order();
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    const auto plan = core::plan_placement(scenario, *schedule, order[i], 0,
                                           VersionKind::Secondary, 0);
    core::commit_placement(scenario, *schedule, plan);
  }

  core::ReadyFrontier frontier(scenario, *schedule);
  for (const Cycles clock : {Cycles{0}, Cycles{100}, scenario.tau}) {
    frontier.advance_to(clock);
    expect_matches(frontier, *schedule, BruteForce::at(scenario, *schedule, clock),
                   clock);
  }
}

TEST(ReadyFrontier, AllReleasedAtClockZeroWithoutReleaseTimes) {
  const auto scenario = test::two_fast_independent(8);
  auto schedule = core::make_schedule(scenario);
  core::ReadyFrontier frontier(scenario, *schedule);
  EXPECT_EQ(frontier.num_unreleased(), 8u);  // nothing released before advance
  frontier.advance_to(0);
  EXPECT_EQ(frontier.num_unreleased(), 0u);
  EXPECT_EQ(frontier.num_ready(), 8u);
  EXPECT_EQ(test::ready_tasks(frontier, *schedule),
            (std::vector<TaskId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// The skip verdicts (core/sweep.hpp) are keyed on revision() alone, so it
// must move on every commit — the only thing that changes an energy ledger —
// and on every join, and stand still across a clock advance that joins
// nothing. A revision that held across a commit would let a stale verdict
// skip a pool the commit changed.
TEST(ReadyFrontier, RevisionMovesOnEveryCommitAndJoin) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  scenario.releases = workload::generate_release_times(
      workload::ReleaseParams{0.4}, scenario.dag, scenario.tau, 7);

  auto schedule = core::make_schedule(scenario);
  core::ReadyFrontier frontier(scenario, *schedule);
  Rng rng(31);
  std::size_t commits = 0;
  std::size_t joins = 0;
  std::size_t quiet_advances = 0;

  Cycles clock = 0;
  while (clock <= scenario.tau && !schedule->complete()) {
    const std::uint64_t before_advance = frontier.revision();
    const std::size_t joined_before = frontier.joined().size();
    frontier.advance_to(clock);
    const std::size_t joined = frontier.joined().size() - joined_before;
    joins += joined;
    // One bump per join; an advance that joins nothing leaves it alone.
    EXPECT_EQ(frontier.revision(), before_advance + joined) << "at clock " << clock;
    if (joined == 0) ++quiet_advances;
    const std::int64_t burst = rng.uniform_int(0, 3);
    for (std::int64_t c = 0; c < burst; ++c) {
      const std::uint64_t before_commit = frontier.revision();
      const std::size_t joined_before_commit = frontier.joined().size();
      if (!commit_random_ready(scenario, *schedule, frontier, rng, clock)) break;
      ++commits;
      const std::size_t unblocked = frontier.joined().size() - joined_before_commit;
      joins += unblocked;
      // One bump for the commit itself, one per child it made ready.
      EXPECT_EQ(frontier.revision(), before_commit + 1 + unblocked)
          << "at clock " << clock;
    }
    clock += rng.uniform_int(1, 50);
  }
  EXPECT_GT(commits, 0u);
  EXPECT_GT(joins, 0u);
  EXPECT_GT(quiet_advances, 0u) << "no advance that joined nothing";
}

}  // namespace
}  // namespace ahg
