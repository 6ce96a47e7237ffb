// Machine-churn fault injection (workload::generate_machine_churn +
// core::run_slrh_with_churn): trace-generation determinism, the churn=off
// bit-identity contract, orphan/recovery behaviour under a forced departure,
// the dynamic-vs-static completion gap that motivates SLRH, and the
// invalidation closure checked against the whole-DAG fixpoint oracle.

#include "core/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/heuristics.hpp"
#include "core/placement.hpp"
#include "core/validate.hpp"
#include "support/event_log.hpp"
#include "support/rng.hpp"
#include "tests/oracles.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

constexpr Cycles kNoDeparture = workload::Scenario::kNoDeparture;

core::SlrhParams slrh_params(core::SlrhVariant variant = core::SlrhVariant::V1) {
  core::SlrhParams params;
  params.variant = variant;
  params.weights = core::Weights::make(0.6, 0.3);
  return params;
}

workload::ChurnParams churn_params(double rate) {
  workload::ChurnParams params;
  params.departures_per_machine = rate;
  return params;
}

/// A generated suite scenario with churn windows drawn at the given rate.
workload::Scenario churny_scenario(double rate, std::uint64_t churn_seed,
                                   std::size_t num_tasks = 48) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, num_tasks);
  const auto trace = workload::generate_machine_churn(
      churn_params(rate), scenario.num_machines(), scenario.tau, churn_seed);
  scenario.machine_windows = trace.windows;
  return scenario;
}

void expect_identical_schedules(const core::MappingResult& a,
                                const core::MappingResult& b,
                                std::size_t num_tasks, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.t100, b.t100);
  EXPECT_EQ(a.aet, b.aet);
  EXPECT_EQ(a.tec, b.tec);  // exact: bit-identical doubles
  ASSERT_NE(a.schedule, nullptr);
  ASSERT_NE(b.schedule, nullptr);
  for (TaskId t = 0; t < static_cast<TaskId>(num_tasks); ++t) {
    ASSERT_EQ(a.schedule->is_assigned(t), b.schedule->is_assigned(t)) << "task " << t;
    if (!a.schedule->is_assigned(t)) continue;
    const auto& x = a.schedule->assignment(t);
    const auto& y = b.schedule->assignment(t);
    EXPECT_EQ(x.machine, y.machine) << "task " << t;
    EXPECT_EQ(x.version, y.version) << "task " << t;
    EXPECT_EQ(x.start, y.start) << "task " << t;
    EXPECT_EQ(x.finish, y.finish) << "task " << t;
    EXPECT_EQ(x.energy, y.energy) << "task " << t;  // exact
  }
}

// --- trace generation -------------------------------------------------------

TEST(ChurnGen, DeterministicInSeed) {
  const Cycles tau = 1'000'000;
  const auto a = workload::generate_machine_churn(churn_params(2.0), 6, tau, 7);
  const auto b = workload::generate_machine_churn(churn_params(2.0), 6, tau, 7);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t j = 0; j < a.windows.size(); ++j) {
    EXPECT_EQ(a.windows[j].join, b.windows[j].join) << "machine " << j;
    EXPECT_EQ(a.windows[j].depart, b.windows[j].depart) << "machine " << j;
    EXPECT_EQ(a.causes[j], b.causes[j]) << "machine " << j;
  }
  const auto c = workload::generate_machine_churn(churn_params(2.0), 6, tau, 8);
  bool any_different = false;
  for (std::size_t j = 0; j < a.windows.size(); ++j) {
    if (a.windows[j].depart != c.windows[j].depart) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ChurnGen, PinsFirstMachineAndRespectsBounds) {
  const Cycles tau = 1'000'000;
  auto params = churn_params(4.0);
  params.late_join_fraction = 0.5;
  const auto trace = workload::generate_machine_churn(params, 8, tau, 3);
  ASSERT_EQ(trace.windows.size(), 8u);
  EXPECT_EQ(trace.windows[0].join, 0);
  EXPECT_EQ(trace.windows[0].depart, kNoDeparture);
  EXPECT_EQ(trace.causes[0], workload::DepartureCause::None);
  for (std::size_t j = 0; j < trace.windows.size(); ++j) {
    const auto& w = trace.windows[j];
    EXPECT_GE(w.join, 0) << "machine " << j;
    EXPECT_LE(w.join, static_cast<Cycles>(params.max_join_fraction * tau))
        << "machine " << j;
    EXPECT_GT(w.depart, w.join) << "machine " << j;
    if (w.depart != kNoDeparture) {
      EXPECT_LT(w.depart, tau) << "machine " << j;
      EXPECT_NE(trace.causes[j], workload::DepartureCause::None) << "machine " << j;
    } else {
      EXPECT_EQ(trace.causes[j], workload::DepartureCause::None) << "machine " << j;
    }
  }
  EXPECT_GE(trace.num_departures(), 1u);  // rate 4/machine over 8 machines
}

TEST(ChurnGen, ZeroRatesProduceNoEvents) {
  auto params = churn_params(0.0);
  params.battery_death_fraction = 0.0;
  const auto trace = workload::generate_machine_churn(params, 4, 1'000'000, 1);
  EXPECT_EQ(trace.num_departures(), 0u);
  for (const auto& w : trace.windows) {
    EXPECT_EQ(w.join, 0);
    EXPECT_EQ(w.depart, kNoDeparture);
  }
}

TEST(ChurnGen, WindowsValidateOnScenario) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 16);
  const auto trace = workload::generate_machine_churn(
      churn_params(2.0), scenario.num_machines(), scenario.tau, 5);
  scenario.machine_windows = trace.windows;
  EXPECT_NO_THROW(scenario.validate());
  scenario.machine_windows.pop_back();  // wrong count
  EXPECT_THROW(scenario.validate(), PreconditionError);
}

// --- churn=off bit-identity -------------------------------------------------

TEST(ChurnOff, BitIdenticalToPlainSlrh) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  auto trivial = scenario;
  trivial.machine_windows.assign(scenario.num_machines(),
                                 workload::Scenario::MachineWindow{});
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
    const auto params = slrh_params(variant);
    const auto plain = core::run_slrh(scenario, params);

    // No windows at all: the churn driver is a plain run.
    const auto off = core::run_slrh_with_churn(scenario, params);
    EXPECT_EQ(off.departures_processed, 0u);
    expect_identical_schedules(plain, off.result, scenario.num_tasks(),
                               core::to_string(variant).c_str());

    // Trivial windows (everyone present forever): the availability check is
    // exercised on every sweep but changes nothing.
    const auto trivial_run = core::run_slrh_with_churn(trivial, params);
    EXPECT_EQ(trivial_run.departures_processed, 0u);
    expect_identical_schedules(plain, trivial_run.result, scenario.num_tasks(),
                               core::to_string(variant).c_str());
  }
}

// --- departures and recovery ------------------------------------------------

/// Force exactly one departure: the machine hosting the last-finishing
/// subtask of the churn-free run departs one cycle before that finish, so at
/// least that subtask is orphaned mid-run.
struct ForcedDeparture {
  workload::Scenario scenario;
  MachineId machine = kInvalidMachine;
  Cycles depart = 0;
};

ForcedDeparture forced_departure_scenario(core::SlrhVariant variant) {
  ForcedDeparture forced{test::small_suite_scenario(sim::GridCase::A, 48)};
  const auto plain = core::run_slrh(forced.scenario, slrh_params(variant));
  // Depart one cycle before the last finish on the busiest non-pinned
  // machine (machine 0 stays, so a completing mapping always exists).
  Cycles last_finish = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(forced.scenario.num_tasks()); ++t) {
    if (!plain.schedule->is_assigned(t)) continue;
    const auto& a = plain.schedule->assignment(t);
    if (a.machine != 0 && a.finish > last_finish) {
      last_finish = a.finish;
      forced.machine = a.machine;
    }
  }
  EXPECT_NE(forced.machine, kInvalidMachine);
  forced.depart = last_finish - 1;
  forced.scenario.machine_windows.assign(forced.scenario.num_machines(),
                                         workload::Scenario::MachineWindow{});
  forced.scenario.machine_windows[static_cast<std::size_t>(forced.machine)].depart =
      forced.depart;
  return forced;
}

TEST(Churn, SingleDepartureOrphansAndRecovers) {
  const auto forced = forced_departure_scenario(core::SlrhVariant::V1);
  obs::CollectSink sink;
  auto params = slrh_params(core::SlrhVariant::V1);
  params.sink = &sink;
  const auto outcome = core::run_slrh_with_churn(forced.scenario, params);

  EXPECT_EQ(outcome.departures_processed, 1u);
  EXPECT_GE(outcome.orphaned, 1u);
  EXPECT_EQ(sink.count(obs::EventKind::MachineDeparture), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::OrphanReturn), outcome.orphaned);

  // The final schedule respects the presence window and every invariant the
  // independent validator knows about.
  core::ValidateOptions options;
  options.require_complete = outcome.result.complete;
  options.require_within_tau = false;
  const auto report =
      core::validate_schedule(forced.scenario, *outcome.result.schedule, options);
  EXPECT_TRUE(report.ok()) << report.str();
  for (TaskId t = 0; t < static_cast<TaskId>(forced.scenario.num_tasks()); ++t) {
    if (!outcome.result.schedule->is_assigned(t)) continue;
    const auto& a = outcome.result.schedule->assignment(t);
    if (a.machine == forced.machine) {
      EXPECT_LE(a.finish, forced.depart) << "task " << t;
    }
  }
  // The stranded battery was written off.
  EXPECT_GT(outcome.energy_forfeited, 0.0);
  EXPECT_DOUBLE_EQ(
      outcome.result.schedule->energy().available(forced.machine), 0.0);
}

TEST(Churn, DeterministicAcrossRuns) {
  const auto scenario = churny_scenario(2.0, 21);
  const auto params = slrh_params(core::SlrhVariant::V1);
  const auto a = core::run_slrh_with_churn(scenario, params);
  const auto b = core::run_slrh_with_churn(scenario, params);
  EXPECT_EQ(a.departures_processed, b.departures_processed);
  EXPECT_EQ(a.orphaned, b.orphaned);
  EXPECT_EQ(a.invalidated, b.invalidated);
  EXPECT_EQ(a.energy_forfeited, b.energy_forfeited);  // exact
  expect_identical_schedules(a.result, b.result, scenario.num_tasks(), "rerun");
}

TEST(Churn, DegradePinsOrphansToSecondary) {
  const auto forced = forced_departure_scenario(core::SlrhVariant::V1);
  obs::CollectSink sink;
  auto params = slrh_params(core::SlrhVariant::V1);
  params.sink = &sink;
  const auto outcome = core::run_slrh_with_churn(forced.scenario, params,
                                                 core::ChurnRecovery::Degrade);
  ASSERT_EQ(outcome.departures_processed, 1u);
  std::size_t remapped = 0;
  for (const auto& event : sink.events()) {
    if (event.kind != obs::EventKind::OrphanReturn) continue;
    if (!outcome.result.schedule->is_assigned(event.task)) continue;
    ++remapped;
    EXPECT_EQ(outcome.result.schedule->assignment(event.task).version,
              VersionKind::Secondary)
        << "orphan " << event.task << " re-mapped at primary under Degrade";
  }
  EXPECT_GE(remapped, 1u);
}

TEST(Churn, RejectsCallerOwnedDegradeMask) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 16);
  std::vector<std::uint8_t> mask(scenario.num_tasks(), 0);
  auto params = slrh_params();
  params.secondary_only = &mask;
  EXPECT_THROW(core::run_slrh_with_churn(scenario, params), PreconditionError);
}

// --- static replay ----------------------------------------------------------

TEST(StaticReplay, NoWindowsKeepsEverything) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  const auto mapping = core::run_heuristic(core::HeuristicKind::MaxMax, scenario,
                                           core::Weights::make(0.6, 0.3));
  ASSERT_TRUE(mapping.complete);
  const auto replay = core::replay_static_under_churn(scenario, *mapping.schedule);
  EXPECT_EQ(replay.completed, scenario.num_tasks());
  EXPECT_EQ(replay.t100_completed, mapping.t100);
  EXPECT_EQ(replay.aet, mapping.aet);
}

TEST(StaticReplay, DepartureDropsUnfinishedWork) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  const auto mapping = core::run_heuristic(core::HeuristicKind::MaxMax, scenario,
                                           core::Weights::make(0.6, 0.3));
  ASSERT_TRUE(mapping.complete);
  // The machine with the last finish departs halfway through its work.
  MachineId machine = kInvalidMachine;
  Cycles last_finish = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
    const auto& a = mapping.schedule->assignment(t);
    if (a.finish > last_finish) {
      last_finish = a.finish;
      machine = a.machine;
    }
  }
  auto churny = scenario;
  churny.machine_windows.assign(scenario.num_machines(),
                                workload::Scenario::MachineWindow{});
  churny.machine_windows[static_cast<std::size_t>(machine)].depart = last_finish - 1;
  const auto replay = core::replay_static_under_churn(churny, *mapping.schedule);
  EXPECT_LT(replay.completed, scenario.num_tasks());
  EXPECT_LE(replay.t100_completed, mapping.t100);
}

TEST(Churn, SlrhCompletesMoreThanStaticMaxMax) {
  // The acceptance-criteria shape: at >= 2 departures per machine, reactive
  // SLRH strictly beats the replayed static Max-Max on completed subtasks.
  const auto scenario = churny_scenario(2.0, 21);
  const auto maxmax = core::run_heuristic(core::HeuristicKind::MaxMax, scenario,
                                          core::Weights::make(0.6, 0.3));
  ASSERT_TRUE(maxmax.complete);
  const auto static_replay =
      core::replay_static_under_churn(scenario, *maxmax.schedule);
  const auto slrh =
      core::run_slrh_with_churn(scenario, slrh_params(core::SlrhVariant::V1));
  ASSERT_GE(slrh.departures_processed, 1u);
  EXPECT_LT(static_replay.completed, scenario.num_tasks());
  EXPECT_GT(slrh.result.assigned, static_replay.completed);
}

// --- invalidation closure vs the fixpoint oracle -----------------------------

/// The assignments and transfers of the subtasks `invalid` spares, replayed
/// onto a fresh schedule: what a recovery leaves for the next departure.
std::shared_ptr<const sim::Schedule> keep_only(const workload::Scenario& scenario,
                                               const sim::Schedule& before,
                                               const std::vector<char>& invalid) {
  const auto kept = [&](TaskId t) {
    return before.is_assigned(t) && invalid[static_cast<std::size_t>(t)] == 0;
  };
  auto schedule = core::make_schedule(scenario);
  for (const auto& ev : before.comm_events()) {
    if (!kept(ev.from_task) || !kept(ev.to_task)) continue;
    schedule->add_comm(ev.from_task, ev.to_task, ev.from_machine, ev.to_machine,
                       ev.start, ev.finish - ev.start, ev.bits, ev.energy);
  }
  for (const TaskId t : before.assignment_order()) {
    if (!kept(t)) continue;
    const auto& a = before.assignment(t);
    schedule->add_assignment(t, a.machine, a.version, a.start, a.finish - a.start,
                             a.energy);
  }
  return schedule;
}

/// Machines with a departure inside the window, earliest departure first.
std::vector<MachineId> departure_order(const workload::Scenario& scenario) {
  std::vector<MachineId> order;
  for (MachineId m = 0; m < static_cast<MachineId>(scenario.num_machines()); ++m) {
    if (scenario.machine_depart(m) != kNoDeparture) order.push_back(m);
  }
  std::stable_sort(order.begin(), order.end(), [&](MachineId a, MachineId b) {
    return scenario.machine_depart(a) < scenario.machine_depart(b);
  });
  return order;
}

struct ClosureTally {
  std::size_t comparisons = 0;
  std::size_t invalid = 0;
  std::size_t completed_lost = 0;  ///< lost tasks that finished before departing
  std::size_t seeded = 0;          ///< comparisons with a non-empty extra seed
};

/// Compare the closure with the oracle on (schedule, departed), then on up to
/// three extra seeds drawn from the kept tasks — both as one seed set closed
/// afresh and as the driver's retry loop grows it, one seed at a time.
void expect_closure_matches(const workload::Scenario& scenario,
                            const sim::Schedule& schedule,
                            const std::vector<char>& departed, Rng& rng,
                            ClosureTally& tally) {
  const std::vector<char> none(scenario.num_tasks(), 0);
  auto grown = core::detail::compute_invalid(scenario, schedule, departed, none);
  ASSERT_EQ(grown, test::invalid_fixpoint_oracle(scenario, schedule, departed, none));
  ++tally.comparisons;
  for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
    if (grown[static_cast<std::size_t>(t)] == 0) continue;
    ++tally.invalid;
    const auto& a = schedule.assignment(t);
    if (departed[static_cast<std::size_t>(a.machine)] != 0 &&
        a.finish <= scenario.machine_depart(a.machine)) {
      ++tally.completed_lost;
    }
  }

  std::vector<char> seed = none;
  for (int round = 0; round < 3; ++round) {
    std::vector<TaskId> kept;
    for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
      if (schedule.is_assigned(t) && grown[static_cast<std::size_t>(t)] == 0) {
        kept.push_back(t);
      }
    }
    if (kept.empty()) return;
    const TaskId pick = kept[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kept.size()) - 1))];
    seed[static_cast<std::size_t>(pick)] = 1;
    grown[static_cast<std::size_t>(pick)] = 1;
    core::detail::close_invalid(scenario, schedule, departed, grown, {pick});
    const auto oracle = test::invalid_fixpoint_oracle(scenario, schedule, departed, seed);
    ASSERT_EQ(grown, oracle) << "grown by seed " << pick;
    ASSERT_EQ(core::detail::compute_invalid(scenario, schedule, departed, seed), oracle)
        << "closed afresh with seed " << pick;
    ++tally.seeded;
  }
}

/// Walk the departures in batches of `batch` (0 = all at once): at each
/// batch compare against the oracle, then drop what was lost, as a recovery
/// would, before the next batch departs.
void walk_departures(const workload::Scenario& scenario,
                     std::shared_ptr<const sim::Schedule> schedule, std::size_t batch,
                     Rng& rng, ClosureTally& tally) {
  const auto order = departure_order(scenario);
  if (batch == 0) batch = std::max<std::size_t>(order.size(), 1);
  std::vector<char> departed(scenario.num_machines(), 0);
  for (std::size_t i = 0; i < order.size();) {
    for (const std::size_t end = std::min(order.size(), i + batch); i < end; ++i) {
      departed[static_cast<std::size_t>(order[i])] = 1;
    }
    expect_closure_matches(scenario, *schedule, departed, rng, tally);
    if (testing::Test::HasFatalFailure()) return;
    schedule = keep_only(
        scenario, *schedule,
        core::detail::compute_invalid(scenario, *schedule, departed,
                                      std::vector<char>(scenario.num_tasks(), 0)));
  }
}

TEST(ChurnInvalidationProperty, ClosureMatchesFixpointOracle) {
  ClosureTally tally;
  for (const auto grid_case : {sim::GridCase::A, sim::GridCase::B, sim::GridCase::C}) {
    for (const std::uint64_t suite_seed : {20040426ull, 4242ull}) {
      const auto plain = test::small_suite_scenario(grid_case, 64, suite_seed);
      for (const std::uint64_t churn_seed : {3ull, 17ull, 29ull}) {
        for (const double rate : {1.5, 3.0}) {
          auto churny = plain;
          churny.machine_windows =
              workload::generate_machine_churn(churn_params(rate),
                                               plain.num_machines(), plain.tau,
                                               churn_seed)
                  .windows;
          SCOPED_TRACE(sim::to_string(grid_case) + " suite " +
                       std::to_string(suite_seed) + " churn " +
                       std::to_string(churn_seed) + " rate " + std::to_string(rate));
          Rng rng(churn_seed * 31 + suite_seed);
          // Four schedule shapes: the churn-blind full mapping, mappings cut
          // off part-way (unmapped children), and the churn driver's result.
          std::vector<std::shared_ptr<const sim::Schedule>> shapes;
          for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
            const auto params = slrh_params(variant);
            shapes.push_back(core::run_slrh(plain, params).schedule);
            for (const Cycles cutoff : {churny.tau / 4, churny.tau / 2}) {
              auto partial = core::make_schedule(churny);
              core::MappingResult stats;
              core::drive_slrh(churny, params, *partial, 0, cutoff, stats);
              shapes.push_back(std::move(partial));
            }
            shapes.push_back(core::run_slrh_with_churn(churny, params).result.schedule);
          }
          for (const auto& shape : shapes) {
            for (const std::size_t batch : {1u, 2u, 0u}) {
              walk_departures(churny, shape, batch, rng, tally);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
  // The sweep reached every rule: tasks were lost, completed work among
  // them (R0's output test or R2), and the seeded retry path ran.
  EXPECT_GT(tally.comparisons, 500u);
  EXPECT_GT(tally.invalid, 0u);
  EXPECT_GT(tally.completed_lost, 0u);
  EXPECT_GT(tally.seeded, 500u);
}

// A completed task whose only data-carrying output is consumed on its own
// departed machine survives until that consumer is lost — here through a
// cascade that starts on a different machine. Only the upward rule (R2)
// catches it; the downward rule never visits a parent.
TEST(ChurnInvalidationProperty, UpwardRuleLosesCompletedParentOfLostChild) {
  // 0 (A) -> 3 (B) on machine 0; 1 (X) on machine 2 -> 2 (C) on machine 1
  // -> 3 (B). Machine 0 departs at 100 after everything on it finished;
  // machine 2 departs at 15, before X finishes at 20.
  constexpr double kBits = 1e6;
  auto scenario = test::make_scenario(
      sim::GridConfig::make(3, 0), 4,
      {{0, 3, kBits}, {1, 2, kBits}, {2, 3, kBits}},
      std::vector<std::vector<double>>(4, std::vector<double>{10.0, 10.0, 10.0}),
      100000);
  scenario.machine_windows.assign(3, workload::Scenario::MachineWindow{});
  scenario.machine_windows[0].depart = 100;
  scenario.machine_windows[2].depart = 15;
  auto schedule = core::make_schedule(scenario);
  schedule->add_assignment(0, 0, VersionKind::Primary, 0, 10, 0.0);   // A
  schedule->add_assignment(1, 2, VersionKind::Primary, 10, 10, 0.0);  // X
  schedule->add_comm(1, 2, 2, 1, 20, 10, kBits, 0.0);
  schedule->add_assignment(2, 1, VersionKind::Primary, 30, 10, 0.0);  // C
  schedule->add_comm(2, 3, 1, 0, 40, 10, kBits, 0.0);
  schedule->add_assignment(3, 0, VersionKind::Primary, 50, 10, 0.0);  // B

  const std::vector<char> none(4, 0);
  // Machine 0 alone: A's output reached B on-machine, B has no outputs.
  EXPECT_EQ(core::detail::compute_invalid(scenario, *schedule, {1, 0, 0}, none),
            (std::vector<char>{0, 0, 0, 0}));
  // Both: X is orphaned (R0), C and B follow it down (R1), and A's only
  // consumer is gone (R2).
  const std::vector<char> departed = {1, 0, 1};
  const auto invalid = core::detail::compute_invalid(scenario, *schedule, departed, none);
  EXPECT_EQ(invalid, (std::vector<char>{1, 1, 1, 1}));
  EXPECT_EQ(invalid, test::invalid_fixpoint_oracle(scenario, *schedule, departed, none));

  // The retry path reaches A the same way from a seed on B alone.
  std::vector<char> grown(4, 0);
  grown[3] = 1;
  core::detail::close_invalid(scenario, *schedule, {1, 0, 0}, grown, {3});
  EXPECT_EQ(grown, (std::vector<char>{1, 0, 0, 1}));
}

}  // namespace
}  // namespace ahg
