#include "core/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/feasibility.hpp"
#include "support/rng.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

using test::EdgeSpec;
using test::make_scenario;

// Grid: machines 0,1 fast (8 Mbit/s), 2 slow (4 Mbit/s).
sim::GridConfig mixed_grid() { return sim::GridConfig::make(2, 1); }

TEST(Placement, RootTaskStartsAtNotBefore) {
  const auto s = make_scenario(mixed_grid(), 1, {}, {{10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 1);
  const auto plan = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 25);
  EXPECT_EQ(plan.start, 25);
  EXPECT_EQ(plan.duration, 100);  // 10 s
  EXPECT_EQ(plan.finish(), 125);
  EXPECT_DOUBLE_EQ(plan.exec_energy, 1.0);
  EXPECT_TRUE(plan.comms.empty());
  EXPECT_EQ(plan.arrival, 0);
}

TEST(Placement, SameMachineChildStartsAtParentFinish) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 5e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  const auto plan = plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0);
  EXPECT_EQ(plan.start, 100);  // right after the parent, no transfer
  EXPECT_TRUE(plan.comms.empty());
  ASSERT_EQ(plan.released_parents.size(), 1u);
  EXPECT_EQ(plan.released_parents[0], 0);
}

TEST(Placement, CrossMachineChildWaitsForTransfer) {
  // 8 Mbit over fast->fast (8 Mbit/s) = 1 s = 10 cycles.
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  const auto plan = plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_EQ(plan.comms[0].start, 100);     // parent finish
  EXPECT_EQ(plan.comms[0].duration, 10);   // 1 s
  EXPECT_DOUBLE_EQ(plan.comms[0].energy, 0.2);  // 1 s * 0.2 u/s from fast sender
  EXPECT_EQ(plan.arrival, 110);
  EXPECT_EQ(plan.start, 110);
}

TEST(Placement, SecondaryParentSendsTenPercent) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule,
                   plan_placement(s, schedule, 0, 0, VersionKind::Secondary, 0));
  const auto plan = plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.comms[0].bits, 8e5);  // 10 % of the primary output
  EXPECT_EQ(plan.comms[0].duration, 1);       // 0.1 s
}

TEST(Placement, TransfersToSameReceiverSerialize) {
  // Two parents on different machines feeding one child: the child machine's
  // rx channel admits one transfer at a time.
  const auto s = make_scenario(
      mixed_grid(), 3, {{0, 2, 8e6}, {1, 2, 8e6}},
      {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 3);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Child on machine 2 (slow): each 8 Mbit transfer at min(8,4)=4 Mbit/s = 2 s.
  const auto plan = plan_placement(s, schedule, 2, 2, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 2u);
  EXPECT_EQ(plan.comms[0].start, 100);
  EXPECT_EQ(plan.comms[0].duration, 20);
  EXPECT_EQ(plan.comms[1].start, 120);  // serialized on the rx channel
  EXPECT_EQ(plan.arrival, 140);
  EXPECT_EQ(plan.start, 140);
}

TEST(Placement, TransfersFromSameSenderSerialize) {
  // One parent feeding two children on different machines: the parent's tx
  // channel admits one transfer at a time.
  const auto s = make_scenario(
      mixed_grid(), 3, {{0, 1, 8e6}, {0, 2, 8e6}},
      {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 3);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Transfer 0->1 occupies tx(0) during [100, 110).
  const auto plan = plan_placement(s, schedule, 2, 2, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_EQ(plan.comms[0].start, 110);  // tx(0) busy until 110
  EXPECT_EQ(plan.comms[0].duration, 20);
}

TEST(Placement, NotBeforeBlocksBackfillForSlrh) {
  const auto s = make_scenario(mixed_grid(), 2, {},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  // Machine 0 busy [200, 300); a 100-cycle job fits before it only if
  // backfill is allowed (not_before = 0).
  schedule.add_assignment(1, 0, VersionKind::Primary, 200, 100, 1.0);
  const auto backfill = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0);
  EXPECT_EQ(backfill.start, 0);  // Max-Max style hole filling
  const auto clocked = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 150);
  EXPECT_EQ(clocked.start, 300);  // hole [150,200) too small for 100 cycles
}

TEST(Placement, CommitChargesAndReserves) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  // Exec energy 1.0 charged; worst-case outgoing reservation: 8 Mbit at
  // 4 Mbit/s (grid min) = 2 s * 0.2 = 0.4 u.
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.4);
  EXPECT_TRUE(schedule.energy().has_reservation(sim::edge_key(0, 1)));

  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Actual transfer fast->fast: 1 s * 0.2 = 0.2 u, settled against the 0.4
  // reservation; child exec charged on machine 1.
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 1.2);
  EXPECT_DOUBLE_EQ(schedule.energy().spent(1), 1.0);
}

TEST(Placement, CommitReleasesSameMachineReservation) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0));
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.0);  // released, not charged
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 2.0);     // two executions only
  EXPECT_TRUE(schedule.comm_events().empty());
}

TEST(Placement, PlanRejectsAssignedTaskOrUnassignedParent) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 1e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  EXPECT_THROW(plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0),
               PreconditionError);  // parent unmapped
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  EXPECT_THROW(plan_placement(s, schedule, 0, 1, VersionKind::Primary, 0),
               PreconditionError);  // already assigned
}

void expect_same_plan(const PlacementPlan& got, const PlacementPlan& want) {
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.duration, want.duration);
  EXPECT_EQ(got.arrival, want.arrival);
  EXPECT_EQ(got.exec_energy, want.exec_energy);
  EXPECT_EQ(got.released_parents, want.released_parents);
  ASSERT_EQ(got.comms.size(), want.comms.size());
  for (std::size_t k = 0; k < got.comms.size(); ++k) {
    EXPECT_EQ(got.comms[k].parent, want.comms[k].parent) << "comm " << k;
    EXPECT_EQ(got.comms[k].from_machine, want.comms[k].from_machine) << "comm " << k;
    EXPECT_EQ(got.comms[k].start, want.comms[k].start) << "comm " << k;
    EXPECT_EQ(got.comms[k].duration, want.comms[k].duration) << "comm " << k;
    EXPECT_EQ(got.comms[k].bits, want.comms[k].bits) << "comm " << k;
    EXPECT_EQ(got.comms[k].energy, want.comms[k].energy) << "comm " << k;
  }
}

TEST(Placement, MatchesOverlayPlanOracle) {
  // Random layered DAGs on random grids with link outages: committed roots,
  // a committed middle layer whose transfers book the tx/rx channels, and
  // unassigned probes with 2-6 parents each, planned on every machine at
  // not_before 0 and at a mid-run clock, at both versions. The live-timeline
  // planner must reproduce the overlay-copy planner field for field.
  Rng rng(20040426);
  std::size_t stepped = 0;        // comms moved off their real-timeline fit
  std::size_t shared_sender = 0;  // plans with two comms from one machine
  std::size_t released = 0;       // same-machine data-carrying parents
  std::size_t plans = 0;
  for (int trial = 0; trial < 24; ++trial) {
    auto grid = sim::GridConfig::make(static_cast<std::size_t>(rng.uniform_int(1, 3)),
                                      static_cast<std::size_t>(rng.uniform_int(1, 3)));
    const std::size_t machines = grid.num_machines();
    const auto roots = static_cast<std::size_t>(rng.uniform_int(4, 8));
    const auto middle = static_cast<std::size_t>(rng.uniform_int(6, 12));
    const std::size_t probes = 8;
    const std::size_t num_tasks = roots + middle + probes;

    std::vector<test::EdgeSpec> edges;
    const auto add_parents = [&](TaskId child, std::size_t pool, std::int64_t lo,
                                 std::int64_t hi) {
      std::vector<TaskId> from(pool);
      for (std::size_t i = 0; i < pool; ++i) from[i] = static_cast<TaskId>(i);
      std::shuffle(from.begin(), from.end(), rng);
      const auto count = std::min<std::size_t>(
          pool, static_cast<std::size_t>(rng.uniform_int(lo, hi)));
      for (std::size_t i = 0; i < count; ++i) {
        // 2e5..2e7 bits: 1-50 cycles per transfer; one edge in ten is empty.
        const double bits = rng.bernoulli(0.1) ? 0.0 : rng.uniform(2e5, 2e7);
        edges.push_back({from[i], child, bits});
      }
    };
    for (std::size_t i = 0; i < middle; ++i) {
      add_parents(static_cast<TaskId>(roots + i), roots, 1, 3);
    }
    for (std::size_t i = 0; i < probes; ++i) {
      add_parents(static_cast<TaskId>(roots + middle + i), roots + middle, 2, 6);
    }
    std::vector<std::vector<double>> etc(num_tasks, std::vector<double>(machines));
    for (auto& row : etc) {
      for (double& secs : row) secs = rng.uniform(2.0, 30.0);
    }
    auto scenario = test::make_scenario(std::move(grid), num_tasks, edges, etc, 100000);
    for (std::size_t m = 0; m < machines; ++m) {
      Cycles cursor = 0;
      for (int k = 0; k < 4; ++k) {
        cursor += rng.uniform_int(10, 300);
        const Cycles dur = rng.uniform_int(5, 60);
        scenario.link_outages.push_back({static_cast<MachineId>(m), cursor, dur});
        cursor += dur;
      }
    }
    scenario.validate();

    const auto schedule = make_schedule(scenario);
    const auto random_version = [&] {
      return rng.bernoulli(0.5) ? VersionKind::Primary : VersionKind::Secondary;
    };
    for (std::size_t i = 0; i < roots + middle; ++i) {
      const auto task = static_cast<TaskId>(i);
      const auto machine = static_cast<MachineId>(
          rng.uniform_below(static_cast<std::uint64_t>(machines)));
      commit_placement(scenario, *schedule,
                       test::overlay_plan_oracle(scenario, *schedule, task, machine,
                                                 random_version(),
                                                 rng.uniform_int(0, 200)));
    }

    for (const Cycles not_before : {Cycles{0}, schedule->aet() / 2}) {
      for (std::size_t i = 0; i < probes; ++i) {
        const auto task = static_cast<TaskId>(roots + middle + i);
        for (std::size_t m = 0; m < machines; ++m) {
          const auto machine = static_cast<MachineId>(m);
          const VersionKind version = random_version();
          SCOPED_TRACE(testing::Message() << "trial " << trial << " task " << task
                                          << " machine " << m << " not_before "
                                          << not_before);
          const auto plan =
              plan_placement(scenario, *schedule, task, machine, version, not_before);
          expect_same_plan(
              plan, test::overlay_plan_oracle(scenario, *schedule, task, machine,
                                              version, not_before));
          ++plans;
          released += plan.released_parents.size();
          for (std::size_t k = 0; k < plan.comms.size(); ++k) {
            const CommPlan& comm = plan.comms[k];
            const Cycles base = sim::Timeline::earliest_fit_pair(
                schedule->tx_timeline(comm.from_machine),
                schedule->rx_timeline(machine),
                std::max(not_before, schedule->assignment(comm.parent).finish),
                comm.duration);
            if (comm.start != base) ++stepped;
            for (std::size_t j = 0; j < k; ++j) {
              if (plan.comms[j].from_machine == comm.from_machine) ++shared_sender;
            }
          }
        }
      }
    }
  }
  // The draw must exercise what the test claims to cover.
  EXPECT_GT(plans, 1000u);
  EXPECT_GT(stepped, 100u);
  EXPECT_GT(shared_sender, 100u);
  EXPECT_GT(released, 100u);
}

}  // namespace
}  // namespace ahg::core
