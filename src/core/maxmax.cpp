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
#include "support/flight_recorder.hpp"
#include "support/profile.hpp"
#include "support/stopwatch.hpp"
#include "support/task_ledger.hpp"

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

  // Telemetry handles, all null when no sink is attached (see SlrhParams for
  // the null-sink contract). Resolved once, outside the selection loop.
  obs::MetricsRegistry* metrics =
      params.sink != nullptr ? params.sink->metrics() : nullptr;
  obs::Histogram* select_hist = obs::phase_histogram(metrics, "maxmax.select_seconds");
  obs::Counter* rounds_counter =
      metrics != nullptr ? &metrics->counter("maxmax.rounds") : nullptr;
  obs::Counter* maps_counter =
      metrics != nullptr ? &metrics->counter("maxmax.map_decisions") : nullptr;
  const bool trace_maps =
      params.sink != nullptr && params.sink->wants(obs::EventKind::MapDecision);
  obs::FlightRecorder* recorder = params.recorder;

  if (params.sink != nullptr && params.sink->wants(obs::EventKind::RunBegin)) {
    obs::Event event;
    event.kind = obs::EventKind::RunBegin;
    event.heuristic = "Max-Max";
    event.alpha = params.weights.alpha;
    event.beta = params.weights.beta;
    event.gamma = params.weights.gamma;
    event.note = "|T|=" + std::to_string(scenario.num_tasks()) +
                 ", machines=" + std::to_string(scenario.num_machines()) +
                 ", tau=" + std::to_string(scenario.tau);
    params.sink->emit(event);
  }

  MappingResult result;

  // Frontier maintenance: tasks whose parents are all mapped but which are
  // themselves unmapped.
  std::vector<std::size_t> unmapped_parents(scenario.num_tasks(), 0);
  std::vector<TaskId> frontier;
  for (TaskId t = 0; t < num_tasks; ++t) {
    unmapped_parents[static_cast<std::size_t>(t)] = scenario.dag.parents(t).size();
    if (unmapped_parents[static_cast<std::size_t>(t)] == 0) frontier.push_back(t);
  }

  // Task-ledger milestones (clock-free heuristic: transition clocks carry
  // the selection round; releases carry the scenario's real release times —
  // the clairvoyant baseline sees every subtask up front, at round 0).
  obs::TaskLedger* ledger = params.ledger;
  if (ledger != nullptr) {
    for (TaskId t = 0; t < num_tasks; ++t) {
      ledger->on_released(t, scenario.release(t));
    }
    for (const TaskId t : frontier) ledger->on_frontier_ready(t, 0);
  }

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

  const double run_t0 = recorder != nullptr ? recorder->now_seconds() : 0.0;

  while (!schedule->complete()) {
    ++result.iterations;
    ++result.pools_built;
    if (rounds_counter != nullptr) rounds_counter->add();
    const double round_t0 = recorder != nullptr ? recorder->now_seconds() : 0.0;
    const auto pool_size = static_cast<std::uint64_t>(frontier.size());
    if (ledger != nullptr) {
      // The whole frontier IS the candidate pool each round; first sighting
      // only (machine unknown until selection).
      const auto round = static_cast<Cycles>(result.iterations);
      for (const TaskId t : frontier) ledger->on_pooled(t, round, kInvalidMachine);
    }

    Triplet best;
    PlacementPlan best_plan;
    {
    obs::ProfileScope select_scope(select_hist);
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
    }  // select_scope

    if (!best.valid()) {  // no feasible pair remains: stuck
      if (params.sink != nullptr && params.sink->wants(obs::EventKind::Stall)) {
        obs::Event event;
        event.kind = obs::EventKind::Stall;
        event.heuristic = "Max-Max";
        event.note = std::to_string(scenario.num_tasks() -
                                    static_cast<std::size_t>(
                                        schedule->num_assigned())) +
                     " subtasks unmapped, no feasible pair remains";
        params.sink->emit(event);
      }
      break;
    }

    if (maps_counter != nullptr) maps_counter->add();
    if (trace_maps) {
      // Term breakdown against the PRE-commit schedule, evaluated at the
      // same finish estimate the selection scored.
      const ObjectiveTerms terms = score_candidate_terms_with_finish(
          scenario, *schedule, params.weights, totals, best.task, best.machine,
          best.version, best.finish_est, params.aet_sign);
      obs::Event event;
      event.kind = obs::EventKind::MapDecision;
      event.heuristic = "Max-Max";
      event.clock = static_cast<Cycles>(result.iterations);  // selection round
      event.machine = best.machine;
      event.task = best.task;
      event.version = best.version;
      event.score = best.score;
      event.terms = {terms.t100, terms.tec, terms.aet, terms.value};
      event.start = best_plan.start;
      event.finish = best_plan.finish();
      event.pool_size = frontier.size();
      params.sink->emit(event);
    }

    commit_placement(scenario, *schedule, best_plan);
    excluded.clear();
    if (ledger != nullptr) {
      record_placement(*ledger, *schedule, best_plan,
                       static_cast<Cycles>(result.iterations));
    }

    // Update the frontier.
    frontier.erase(std::find(frontier.begin(), frontier.end(), best.task));
    for (const TaskId child : scenario.dag.children(best.task)) {
      if (--unmapped_parents[static_cast<std::size_t>(child)] == 0) {
        frontier.push_back(child);
        if (ledger != nullptr) {
          ledger->on_frontier_ready(child, static_cast<Cycles>(result.iterations));
        }
      }
    }
    std::sort(frontier.begin(), frontier.end());

    if (recorder != nullptr) {
      // One frame per selection round; Max-Max has no simulation clock, so
      // frame.clock carries the round index (matching the event stream).
      const auto round = static_cast<Cycles>(result.iterations);
      const double now = recorder->now_seconds();
      recorder->add_span("select", round_t0, now - round_t0, round, best.machine);
      obs::Frame frame;
      frame.heuristic = "Max-Max";
      frame.clock = round;
      frame.wall_seconds = now;
      frame.timestep_seconds = now - round_t0;
      frame.pool_build_seconds = now - round_t0;  // the round IS the selection
      const ObjectiveTerms terms = objective_terms(
          params.weights,
          ObjectiveState{schedule->t100(), schedule->tec(), schedule->aet()},
          totals, params.aet_sign);
      frame.term_t100 = terms.t100;
      frame.term_tec = terms.tec;
      frame.term_aet = terms.aet;
      frame.objective = terms.value;
      frame.assigned = schedule->num_assigned();
      frame.t100 = schedule->t100();
      frame.tec = schedule->tec();
      frame.aet = schedule->aet();
      frame.pools_built = 1;
      frame.maps = 1;
      frame.last_pool_size = pool_size;
      frame.frontier_ready = frontier.size();
      const sim::EnergyLedger& energy = schedule->energy();
      for (MachineId m = 0; m < num_machines; ++m) {
        const double capacity = energy.capacity(m);
        frame.battery_fraction.push_back(
            capacity > 0.0 ? energy.available(m) / capacity : 0.0);
        frame.busy_until.push_back(schedule->machine_ready(m));
      }
      recorder->record(std::move(frame));
    }
  }

  if (recorder != nullptr) {
    recorder->add_span("run:Max-Max", run_t0, recorder->now_seconds() - run_t0);
  }

  result.wall_seconds = timer.seconds();
  result.complete = schedule->complete();
  result.assigned = schedule->num_assigned();
  result.t100 = schedule->t100();
  result.aet = schedule->aet();
  result.tec = schedule->tec();
  result.within_tau = schedule->aet() <= scenario.tau;
  result.schedule = std::move(schedule);

  if (params.sink != nullptr && params.sink->wants(obs::EventKind::RunEnd)) {
    obs::Event event;
    event.kind = obs::EventKind::RunEnd;
    event.heuristic = "Max-Max";
    event.alpha = params.weights.alpha;
    event.beta = params.weights.beta;
    event.gamma = params.weights.gamma;
    event.t100 = result.t100;
    event.assigned = result.assigned;
    event.aet = result.aet;
    event.feasible = result.feasible();
    event.wall_seconds = result.wall_seconds;
    params.sink->emit(event);
  }
  return result;
}

}  // namespace ahg::core
