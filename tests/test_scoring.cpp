#include "core/scoring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg::core {
namespace {

using test::make_scenario;

TEST(Scoring, TotalsDeriveFromScenario) {
  const auto s = test::two_fast_independent(4);
  const auto totals = objective_totals(s);
  EXPECT_EQ(totals.num_tasks, 4u);
  EXPECT_DOUBLE_EQ(totals.tse, 1160.0);
  EXPECT_EQ(totals.tau, 100000);
}

TEST(Scoring, AlphaFavorsPrimaryVersion) {
  const auto s = test::two_fast_independent(4);
  sim::Schedule schedule(s.grid, 4);
  const auto totals = objective_totals(s);
  const Weights w = Weights::make(1.0, 0.0);
  const double primary =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 0);
  const double secondary =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Secondary, 0);
  EXPECT_GT(primary, secondary);
}

TEST(Scoring, BetaFavorsCheapMachine) {
  // One fast, one slow machine: the slow machine costs 100x less energy.
  const auto s = make_scenario(sim::GridConfig::make(1, 1), 2, {},
                               {{10.0, 100.0}, {10.0, 100.0}}, 1000000);
  sim::Schedule schedule(s.grid, 2);
  const auto totals = objective_totals(s);
  const Weights w = Weights::make(0.0, 1.0);
  const double on_fast =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 0);
  const double on_slow =
      score_candidate(s, schedule, w, totals, 0, 1, VersionKind::Primary, 0);
  EXPECT_GT(on_slow, on_fast);
}

TEST(Scoring, GammaRewardFavorsLaterFinish) {
  const auto s = make_scenario(sim::GridConfig::make(1, 1), 2, {},
                               {{10.0, 100.0}, {10.0, 100.0}}, 1000000);
  sim::Schedule schedule(s.grid, 2);
  const auto totals = objective_totals(s);
  const Weights w = Weights::make(0.0, 0.0);  // pure gamma
  // Slow machine finishes later -> larger AET term under the + sign.
  const double on_fast =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 0);
  const double on_slow =
      score_candidate(s, schedule, w, totals, 0, 1, VersionKind::Primary, 0);
  EXPECT_GT(on_slow, on_fast);
  // And the ablation sign flips the preference.
  EXPECT_LT(score_candidate(s, schedule, w, totals, 0, 1, VersionKind::Primary, 0,
                            AetSign::Penalize),
            score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 0,
                            AetSign::Penalize));
}

TEST(Scoring, IncludesIncomingTransferEnergy) {
  // Parent on machine 0; scoring the child on machine 1 must count the
  // transfer energy, same machine must not.
  const auto s = make_scenario(sim::GridConfig::make(2, 0), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0}, {10.0, 10.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  const auto totals = objective_totals(s);
  const Weights w = Weights::make(0.0, 1.0);  // pure energy penalty
  const double same =
      score_candidate(s, schedule, w, totals, 1, 0, VersionKind::Primary, 0);
  const double cross =
      score_candidate(s, schedule, w, totals, 1, 1, VersionKind::Primary, 0);
  // Same exec energy on both (fast machines), but the cross placement pays
  // 0.2 u transfer -> worse under the energy penalty.
  EXPECT_GT(same, cross);
  // The delta is exactly beta * 0.2 / TSE.
  EXPECT_NEAR(same - cross, 0.2 / totals.tse, 1e-12);
}

TEST(Scoring, EarliestLowerBoundsFinishEstimate) {
  const auto s = test::two_fast_independent(2);
  sim::Schedule schedule(s.grid, 2);
  const auto totals = objective_totals(s);
  const Weights w = Weights::make(0.0, 0.0);  // pure gamma: score tracks AET
  const double at_zero =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 0);
  const double at_thousand =
      score_candidate(s, schedule, w, totals, 0, 0, VersionKind::Primary, 1000);
  EXPECT_GT(at_thousand, at_zero);  // later clock -> later estimated finish
}

// --- batched kernel vs scalar path: bit-identity property sweep ---------
//
// For randomized suite scenarios (several grid cases, seeds, and sizes) with
// a partially committed schedule: build_candidate_batch + score_batch must
// reproduce the scalar pool build EXACTLY — same admission verdicts (batch
// membership == version_fits_energy), bit-identical scores for every
// admitted (task, machine, version) triple, and the identical
// primary/secondary classification — under both AET signs and with a
// degrade mask (secondary_only) active. The same sweep proves the gather's
// arrival lower bound sound: never above plan_placement's arrival, exact
// without cross-machine data, and strictly below it somewhere once channel
// outages and earlier transfers contend.

struct BatchedScoringCase {
  sim::GridCase grid_case;
  std::size_t num_tasks;
  std::uint64_t seed;
};

class BatchedScoringProperty
    : public ::testing::TestWithParam<BatchedScoringCase> {};

TEST_P(BatchedScoringProperty, MatchesScalarScoringBitForBit) {
  const auto& cfg = GetParam();
  const auto s = test::small_suite_scenario(cfg.grid_case, cfg.num_tasks, cfg.seed);
  const ScenarioCache cache(s);
  const auto totals = objective_totals(s);
  const auto num_tasks = static_cast<TaskId>(s.num_tasks());
  const auto num_machines = static_cast<MachineId>(s.num_machines());

  // Commit roughly the first third of the tasks (in id order, which respects
  // the generator's topological numbering) round-robin across machines, so
  // the batch gather sees real parent placements, partially drained
  // batteries, and busy timelines. Channel outages on two machines make
  // transfers wait beyond the data's earliest possible start.
  sim::Schedule schedule(s.grid, s.num_tasks());
  schedule.block_channels(0, s.tau / 20, s.tau / 4);
  schedule.block_channels(1, 0, s.tau / 6);
  const TaskId commit_until = num_tasks / 3;
  for (TaskId t = 0; t < commit_until; ++t) {
    const MachineId m = t % num_machines;
    bool parents_placed = true;
    for (const TaskId parent : s.dag.parents(t)) {
      if (!schedule.is_assigned(parent)) parents_placed = false;
    }
    if (!parents_placed ||
        !version_fits_energy(cache, schedule, t, m, VersionKind::Secondary)) {
      continue;
    }
    commit_placement(s, schedule,
                     plan_placement(s, schedule, t, m, VersionKind::Secondary, 0));
  }

  std::vector<TaskId> ready;
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (schedule.is_assigned(t)) continue;
    bool parents_placed = true;
    for (const TaskId parent : s.dag.parents(t)) {
      if (!schedule.is_assigned(parent)) parents_placed = false;
    }
    if (parents_placed) ready.push_back(t);
  }
  ASSERT_FALSE(ready.empty());

  // Degrade mask: every third ready task is pinned to its secondary version.
  std::vector<std::uint8_t> degrade(s.num_tasks(), 0);
  for (std::size_t i = 0; i < ready.size(); i += 3) {
    degrade[static_cast<std::size_t>(ready[i])] = 1;
  }

  const Weights w = Weights::make(0.6, 0.3);
  GatherRows rows(s.num_tasks(), s.num_machines());
  CandidateBatch batch;
  std::size_t strict_bounds = 0;
  for (MachineId m = 0; m < num_machines; ++m) {
    for (const Cycles earliest : {Cycles{0}, s.tau / 7}) {
      for (const AetSign sign : {AetSign::Reward, AetSign::Penalize}) {
        for (const std::vector<std::uint8_t>* mask :
             {static_cast<const std::vector<std::uint8_t>*>(nullptr),
              static_cast<const std::vector<std::uint8_t>*>(&degrade)}) {
          SCOPED_TRACE("machine " + std::to_string(m) + " earliest " +
                       std::to_string(earliest) + " sign " +
                       std::to_string(static_cast<int>(sign)) +
                       (mask != nullptr ? " masked" : ""));
          const std::size_t rejected = build_candidate_batch(
              cache, s, schedule, std::span<const TaskId>(ready), m, earliest,
              mask, rows, batch);
          score_batch(batch, w, totals, schedule.t100(), schedule.tec(),
                      schedule.aet(), sign);

          // Admission: batch membership must equal the scalar verdict, and
          // every rejection must be counted.
          std::size_t slot = 0;
          std::size_t scalar_rejected = 0;
          for (const TaskId task : ready) {
            const bool admitted = version_fits_energy(cache, schedule, task, m,
                                                      VersionKind::Secondary);
            if (!admitted) {
              ++scalar_rejected;
              continue;
            }
            ASSERT_LT(slot, batch.size());
            ASSERT_EQ(batch.task[slot], task);

            const double secondary =
                score_candidate(cache, s, schedule, w, totals, task, m,
                                VersionKind::Secondary, earliest, sign);
            EXPECT_EQ(batch.score_secondary[slot], secondary);  // exact

            const bool degraded =
                mask != nullptr && (*mask)[static_cast<std::size_t>(task)] != 0;
            VersionKind expect_version = VersionKind::Secondary;
            double expect_score = secondary;
            if (!degraded && version_fits_energy(cache, schedule, task, m,
                                                 VersionKind::Primary)) {
              EXPECT_NE(batch.primary_allowed[slot], 0);
              const double primary =
                  score_candidate(cache, s, schedule, w, totals, task, m,
                                  VersionKind::Primary, earliest, sign);
              EXPECT_EQ(batch.score_primary[slot], primary);  // exact
              if (primary >= secondary) {
                expect_version = VersionKind::Primary;
                expect_score = primary;
              }
            } else {
              EXPECT_EQ(batch.primary_allowed[slot], 0);
            }
            EXPECT_EQ(batch.version[slot], expect_version) << "task " << task;
            EXPECT_EQ(batch.score[slot], expect_score);  // exact

            // Arrival lower bound: sound for either version, exact when every
            // data-carrying parent sits on this machine.
            bool remote_data = false;
            for (const TaskId parent : s.dag.parents(task)) {
              const auto& pa = schedule.assignment(parent);
              if (pa.machine != m && s.edge_bits(parent, task, pa.version) > 0.0) {
                remote_data = true;
              }
            }
            for (const VersionKind version :
                 {VersionKind::Secondary, VersionKind::Primary}) {
              const Cycles arrival =
                  plan_placement(s, schedule, task, m, version, earliest).arrival;
              EXPECT_LE(batch.arrival_lb[slot], arrival) << "task " << task;
              if (!remote_data) {
                EXPECT_EQ(batch.arrival_lb[slot], arrival) << "task " << task;
              }
              if (batch.arrival_lb[slot] < arrival) ++strict_bounds;
            }
            ++slot;
          }
          EXPECT_EQ(slot, batch.size());
          EXPECT_EQ(rejected, scalar_rejected);
        }
      }
    }
  }
  EXPECT_GT(strict_bounds, 0u) << "no slot saw channel contention";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchedScoringProperty,
    ::testing::Values(BatchedScoringCase{sim::GridCase::A, 48, 20040426},
                      BatchedScoringCase{sim::GridCase::B, 48, 20040426},
                      BatchedScoringCase{sim::GridCase::C, 48, 20040426},
                      BatchedScoringCase{sim::GridCase::A, 96, 777},
                      BatchedScoringCase{sim::GridCase::B, 64, 31337},
                      BatchedScoringCase{sim::GridCase::C, 80, 4242}));

// --- gather rows vs the per-build parent walk --------------------------------
//
// GatherRows fills a (task, machine) entry with one parent walk the first
// time a gather meets the pair and evaluates the arrival bound at every
// later clock as max(A, clock + D). Over several rounds of a growing
// schedule — link outages on two machines, a degrade mask, release times on
// some shapes, committed tasks dropping their rows and new ready tasks
// reusing them — every gathered slot's tec deltas must be bit-identical to
// the per-build walk's (test::gather_parents_oracle) and its bound equal,
// at several clocks per round. Both branches of the split must be hit:
// a cross-machine parent whose finish + dur dominates (A) and one where the
// clock does (clock + D).

struct GatherRowsCase {
  sim::GridCase grid_case;
  std::size_t num_tasks;
  std::uint64_t seed;
  bool releases;
};

class SlrhGatherRowsProperty : public ::testing::TestWithParam<GatherRowsCase> {};

TEST_P(SlrhGatherRowsProperty, RowsMatchPerBuildParentWalk) {
  const auto& cfg = GetParam();
  auto s = test::small_suite_scenario(cfg.grid_case, cfg.num_tasks, cfg.seed);
  if (cfg.releases) {
    s.releases = workload::generate_release_times(workload::ReleaseParams{0.3},
                                                  s.dag, s.tau, cfg.seed);
  }
  const ScenarioCache cache(s);
  const auto num_tasks = static_cast<TaskId>(s.num_tasks());
  const auto num_machines = static_cast<MachineId>(s.num_machines());

  sim::Schedule schedule(s.grid, s.num_tasks());
  schedule.block_channels(0, s.tau / 20, s.tau / 4);
  schedule.block_channels(1, 0, s.tau / 6);
  std::vector<std::uint8_t> degrade(s.num_tasks(), 0);
  for (std::size_t t = 0; t < degrade.size(); t += 3) degrade[t] = 1;

  GatherRows rows(s.num_tasks(), s.num_machines());
  CandidateBatch batch;
  std::size_t compared = 0;
  std::size_t base_wins = 0;   // cross-machine data, A > clock + D
  std::size_t clock_wins = 0;  // cross-machine data, clock + D > A
  const Cycles step = s.tau / 64;
  for (Cycles round_clock = 0; round_clock < s.tau / 2; round_clock += step) {
    std::vector<TaskId> ready;
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (schedule.is_assigned(t) || s.release(t) > round_clock) continue;
      bool parents_placed = true;
      for (const TaskId parent : s.dag.parents(t)) {
        if (!schedule.is_assigned(parent)) parents_placed = false;
      }
      if (parents_placed) ready.push_back(t);
    }
    if (ready.empty()) continue;

    for (MachineId m = 0; m < num_machines; ++m) {
      for (const Cycles clock : {round_clock / 2, round_clock, round_clock + step}) {
        SCOPED_TRACE("machine " + std::to_string(m) + " clock " + std::to_string(clock));
        build_candidate_batch(cache, s, schedule, std::span<const TaskId>(ready), m,
                              clock, m % 2 == 0 ? &degrade : nullptr, rows, batch);
        for (std::size_t slot = 0; slot < batch.size(); ++slot) {
          const TaskId task = batch.task[slot];
          const test::GatherParents oracle =
              test::gather_parents_oracle(cache, s, schedule, task, m, clock);
          EXPECT_EQ(batch.tec_delta_secondary[slot], oracle.tec_delta_secondary)
              << "task " << task;  // exact
          EXPECT_EQ(batch.tec_delta_primary[slot], oracle.tec_delta_primary)
              << "task " << task;  // exact
          EXPECT_EQ(batch.arrival_lb[slot], oracle.arrival_lb) << "task " << task;
          const ParentTerms& terms = rows.terms(cache, s, schedule, task, m);
          EXPECT_EQ(terms.arrival_lb(clock), oracle.arrival_lb) << "task " << task;
          if (terms.transfer_max != ParentTerms::kNoTransfer) {
            if (terms.arrival_base > clock + terms.transfer_max) ++base_wins;
            if (terms.arrival_base < clock + terms.transfer_max) ++clock_wins;
          }
          ++compared;
        }
      }
    }
    // Rows exist only for ready tasks: O(peak ready x |M|) storage.
    EXPECT_LE(rows.rows_in_use(), ready.size());

    // Commit a third of the ready tasks (their rows go), so the next round
    // gathers newly ready children into reused rows.
    for (std::size_t i = 0; i < ready.size(); i += 3) {
      const TaskId task = ready[i];
      const MachineId m = static_cast<MachineId>(task % num_machines);
      if (!version_fits_energy(cache, schedule, task, m, VersionKind::Secondary)) continue;
      commit_placement(s, schedule, plan_placement(s, schedule, task, m,
                                                   VersionKind::Secondary, round_clock));
      rows.drop(task);
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(base_wins, 0u) << "no slot had a parent's finish + dur above clock + D";
  EXPECT_GT(clock_wins, 0u) << "no slot had clock + D above its other arrivals";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlrhGatherRowsProperty,
    ::testing::Values(GatherRowsCase{sim::GridCase::A, 48, 20040426, false},
                      GatherRowsCase{sim::GridCase::B, 48, 20040426, false},
                      GatherRowsCase{sim::GridCase::C, 48, 20040426, false},
                      GatherRowsCase{sim::GridCase::A, 64, 4242, true},
                      GatherRowsCase{sim::GridCase::C, 80, 777, true}));

TEST(Scoring, RequiresParentsAssigned) {
  const auto s = make_scenario(sim::GridConfig::make(1, 0), 2, {{0, 1, 1e6}},
                               {{10.0}, {10.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  const auto totals = objective_totals(s);
  EXPECT_THROW(score_candidate(s, schedule, Weights::make(0.5, 0.1), totals, 1, 0,
                               VersionKind::Primary, 0),
               PreconditionError);
}

}  // namespace
}  // namespace ahg::core
