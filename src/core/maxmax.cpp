#include "core/maxmax.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/taps.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

namespace {

struct Triplet {
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;
  VersionKind version = VersionKind::Primary;
  double score = 0.0;
  Cycles finish_est = 0;

  bool valid() const noexcept { return task != kInvalidTask; }

  /// Deterministic "is better" ordering: higher score wins; score ties break
  /// toward the earliest estimated finish (the standard list-scheduling
  /// secondary criterion — without it, flat objective regions would stack
  /// every subtask on machine 0 by id order), then task id, machine id, and
  /// primary before secondary.
  bool better_than(const Triplet& other) const noexcept {
    if (!other.valid()) return true;
    if (score != other.score) return score > other.score;
    if (finish_est != other.finish_est) return finish_est < other.finish_est;
    if (task != other.task) return task < other.task;
    if (machine != other.machine) return machine < other.machine;
    return version == VersionKind::Primary && other.version == VersionKind::Secondary;
  }
};

}  // namespace

MappingResult run_maxmax(const workload::Scenario& scenario, const MaxMaxParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;

  auto schedule = make_schedule(scenario);
  const ObjectiveTotals totals = objective_totals(scenario);

  // Precomputed pure-scenario tables (admission energies, execution cycles,
  // per-task minimum execution cycles): the caller's shared cache, else a
  // run-local one. Built by the exact uncached expressions, so reading them
  // changes no decision.
  std::optional<ScenarioCache> local_cache;
  const ScenarioCache& cache =
      params.cache != nullptr ? *params.cache : local_cache.emplace(scenario);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());

  MappingResult result;

  // Frontier maintenance: tasks whose parents are all mapped but which are
  // themselves unmapped.
  std::vector<std::size_t> unmapped_parents(scenario.num_tasks(), 0);
  std::vector<TaskId> frontier;
  for (TaskId t = 0; t < num_tasks; ++t) {
    unmapped_parents[static_cast<std::size_t>(t)] = scenario.dag.parents(t).size();
    if (unmapped_parents[static_cast<std::size_t>(t)] == 0) frontier.push_back(t);
  }

  Taps taps(scenario, params);
  taps.on_run_begin(frontier);

  // Deadline admission is CRITICAL-PATH AWARE: a candidate may finish no
  // later than tau minus the cheapest possible execution of its longest
  // descendant chain (each descendant at its secondary version on its
  // fastest machine — a necessary condition for the rest of the DAG to
  // remain completable). Without this lookahead, the greedy packs slow
  // machines with primaries right up to tau and every descendant of those
  // last placements is strangled; no non-degenerate weight choice can then
  // produce a complete mapping, contradicting the paper's reported Max-Max
  // performance (see DESIGN.md §4). tail[i] is precomputed bottom-up.
  std::vector<Cycles> tail(scenario.num_tasks(), 0);
  if (params.enforce_tau) {
    const auto order = scenario.dag.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const TaskId t = *it;
      const Cycles min_exec = cache.min_exec_cycles(t, VersionKind::Secondary);
      for (const TaskId parent : scenario.dag.parents(t)) {
        tail[static_cast<std::size_t>(parent)] =
            std::max(tail[static_cast<std::size_t>(parent)],
                     min_exec + tail[static_cast<std::size_t>(t)]);
      }
    }
  }

  // Triplets whose EXACT placement overshot the deadline budget this round
  // (the cheap finish estimate ignores communication delays, so an
  // estimate-feasible pick can still plan past it; exclusions reset per
  // commit because every commit changes the schedule).
  std::set<std::tuple<TaskId, MachineId, VersionKind>> excluded;

  while (!schedule->complete()) {
    ++result.iterations;
    ++result.pools_built;
    const auto round = static_cast<Cycles>(result.iterations);

    Triplet best;
    PlacementPlan best_plan;
    taps.on_pool(frontier, round, [&] {
      for (;;) {
        best = Triplet{};
        for (const TaskId task : frontier) {
          // Data-arrival lower bound: a pure function of the task's (already
          // committed) parents, hoisted out of the machine x version sweep.
          Cycles arrival_lb = scenario.release(task);
          for (const TaskId parent : scenario.dag.parents(task)) {
            arrival_lb = std::max(arrival_lb, schedule->assignment(parent).finish);
          }
          for (MachineId machine = 0; machine < num_machines; ++machine) {
            for (const VersionKind version :
                 {VersionKind::Primary, VersionKind::Secondary}) {
              if (excluded.contains({task, machine, version})) continue;
              if (!version_fits_energy(cache, *schedule, task, machine, version)) {
                continue;
              }
              // Hole-aware finish estimate: earliest-fit (served by the
              // timeline's ordered hole index) from the latest parent finish —
              // Max-Max backfills, so an append-style "ready + exec" estimate
              // would misprice every candidate once any machine has a late
              // booking.
              const Cycles exec = cache.exec_cycles(task, machine, version);
              const Cycles start_est =
                  schedule->compute_timeline(machine).earliest_fit(arrival_lb, exec);
              const Cycles finish_est = start_est + exec;
              if (params.enforce_tau &&
                  finish_est + tail[static_cast<std::size_t>(task)] > scenario.tau) {
                continue;
              }
              const double score = score_candidate_with_finish(
                  cache, scenario, *schedule, params.weights, totals, task, machine,
                  version, finish_est, params.aet_sign);
              const Triplet triplet{task, machine, version, score, finish_est};
              if (triplet.better_than(best)) best = triplet;
            }
          }
        }
        if (!best.valid()) break;
        best_plan = plan_placement(scenario, *schedule, best.task, best.machine,
                                   best.version, /*not_before=*/0);
        if (!params.enforce_tau ||
            best_plan.finish() + tail[static_cast<std::size_t>(best.task)] <=
                scenario.tau) {
          break;
        }
        // The exact plan (communication included) overshoots tau: exclude this
        // triplet and re-select.
        excluded.insert({best.task, best.machine, best.version});
      }
    });

    if (!best.valid()) {  // no feasible pair remains: stuck
      taps.on_stall(*schedule);
      break;
    }

    taps.on_commit(*schedule, best_plan,
                   {round, frontier.size(), best.score, best.finish_est},
                   [&] { commit_placement(scenario, *schedule, best_plan); });
    excluded.clear();

    // Update the frontier; children it gains are appended from first_ready.
    frontier.erase(std::find(frontier.begin(), frontier.end(), best.task));
    const std::size_t first_ready = frontier.size();
    for (const TaskId child : scenario.dag.children(best.task)) {
      if (--unmapped_parents[static_cast<std::size_t>(child)] == 0) {
        frontier.push_back(child);
      }
    }
    taps.on_tick(*schedule, round, best.machine, frontier, first_ready);
    std::sort(frontier.begin(), frontier.end());
  }

  finalize_result(result, std::move(schedule), scenario.tau, timer.seconds());
  taps.on_run_end(result);
  return result;
}

}  // namespace ahg::core
