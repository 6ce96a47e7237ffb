#pragma once
// Test-only reference implementations. Production code keeps exactly one
// path per operation; these slow, obviously-correct versions exist only so
// tests can diff the fast paths against them.
//
//  - brute_force_fit: earliest fit on a timeline by checking every candidate
//    start (not_before and each interval end) against is_free.
//  - scan_pool_oracle: the SLRH pool U built the way the paper states it —
//    scan all |T| subtasks, classify admission per task with on-demand
//    energy derivations (no ScenarioCache, no ReadyFrontier), score each
//    candidate through score_candidate, sort.
//  - gather_parents_oracle: the SLRH gather's per-build parent walk, which
//    the per-window GatherRows replaced — both tec-delta chains and the
//    arrival bound at one clock, re-derived from the parents every call.
//  - ready_tasks: the frontier's ready set in task-id order, read off its
//    joined() log (the frontier keeps only the count).
//  - full_gather_pool_oracle: the SLRH pool build over the whole ready set,
//    which the per-machine horizon-activation index replaced — gather and
//    score every ready task, then split live from dead by the arrival bound.
//  - map_first_startable_oracle: the SLRH map walk over the WHOLE pool in
//    order, dead slots included, each rejected where the walk meets it.
//  - scan_maxmax_oracle: Max-Max with the per-round rescan the candidate
//    table replaced — every round walks each frontier task's parents and
//    re-admits, re-prices and re-scores every (machine, version) from
//    scratch through the uncached feasibility and scoring functions.
//  - invalid_fixpoint_oracle: churn invalidation as the whole-DAG fixpoint
//    the worklist closure replaced — a topological downward pass plus an
//    output-survival pass over every task, repeated until no flag changes,
//    over an index of every comm event.
//  - overlay_plan_oracle: plan_placement as it was before it planned against
//    the live channel timelines — each transfer is fitted against copies of
//    the sender's tx and the receiver's rx timeline with the transfers
//    planned for earlier parents inserted.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/maxmax.hpp"
#include "core/placement.hpp"
#include "core/scoring.hpp"
#include "core/scenario_cache.hpp"
#include "core/slrh.hpp"
#include "core/taps.hpp"
#include "sim/comm.hpp"
#include "sim/schedule.hpp"
#include "sim/timeline.hpp"
#include "workload/scenario.hpp"

namespace ahg::test {

/// The minimal feasible start is not_before itself or some interval's end —
/// check them all against is_free.
inline Cycles brute_force_fit(const sim::Timeline& tl, Cycles not_before,
                              Cycles duration) {
  Cycles best = std::numeric_limits<Cycles>::max();
  const auto consider = [&](Cycles s) {
    if (s >= not_before && tl.is_free(s, duration)) best = std::min(best, s);
  };
  consider(not_before);
  for (const sim::Interval& iv : tl.intervals()) {
    consider(std::max(not_before, iv.end));
  }
  return best;
}

struct ScanPool {
  std::vector<core::SlrhPoolCandidate> pool;
  core::SlrhPoolRejects rejects;
};

/// Pool U for (machine, clock): every released subtask that is unassigned,
/// has all parents assigned, and whose secondary version fits the machine's
/// battery under the worst-case communication rule. Each candidate carries
/// its objective-maximising version (primary only if it fits too, the task
/// is not pinned by `params.secondary_only`, and it scores at least as high
/// as secondary); the pool is ordered by score descending, ties by task id.
/// Rejections are tallied by the first failing rule.
inline ScanPool scan_pool_oracle(const workload::Scenario& scenario,
                                 const sim::Schedule& schedule,
                                 const core::SlrhParams& params,
                                 const core::ObjectiveTotals& totals,
                                 MachineId machine, Cycles clock) {
  ScanPool out;
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId task = 0; task < num_tasks; ++task) {
    if (scenario.release(task) > clock) {
      ++out.rejects.unreleased;
      continue;
    }
    switch (core::classify_slrh_admission(scenario, schedule, task, machine)) {
      case core::AdmissionOutcome::AlreadyAssigned: ++out.rejects.assigned; continue;
      case core::AdmissionOutcome::ParentsUnassigned: ++out.rejects.parents; continue;
      case core::AdmissionOutcome::EnergyInfeasible: ++out.rejects.energy; continue;
      case core::AdmissionOutcome::Admissible: break;
    }
    const double secondary =
        core::score_candidate(scenario, schedule, params.weights, totals, task,
                              machine, VersionKind::Secondary, clock,
                              params.aet_sign);
    core::SlrhPoolCandidate cand{task, VersionKind::Secondary, secondary};
    const bool pinned = params.secondary_only != nullptr &&
                        (*params.secondary_only)[static_cast<std::size_t>(task)] != 0;
    if (!pinned && core::version_fits_energy(scenario, schedule, task, machine,
                                             VersionKind::Primary)) {
      const double primary =
          core::score_candidate(scenario, schedule, params.weights, totals, task,
                                machine, VersionKind::Primary, clock,
                                params.aet_sign);
      if (primary >= secondary) {
        cand.version = VersionKind::Primary;
        cand.score = primary;
      }
    }
    out.pool.push_back(cand);
  }
  std::sort(out.pool.begin(), out.pool.end(),
            [](const core::SlrhPoolCandidate& a, const core::SlrhPoolCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.task < b.task;
            });
  return out;
}

struct GatherParents {
  double tec_delta_secondary = 0.0;
  double tec_delta_primary = 0.0;
  Cycles arrival_lb = 0;
};

/// One parent walk for (task, machine) at `earliest`: each tec chain starts
/// from its version's exec energy and adds the transfer energies in parent
/// order; local data lands at the parent's finish, a transfer no earlier
/// than max(earliest, finish) plus its duration.
inline GatherParents gather_parents_oracle(const core::ScenarioCache& cache,
                                           const workload::Scenario& scenario,
                                           const sim::Schedule& schedule,
                                           TaskId task, MachineId machine,
                                           Cycles earliest) {
  GatherParents out;
  out.tec_delta_secondary = cache.exec_energy(task, machine, VersionKind::Secondary);
  out.tec_delta_primary = cache.exec_energy(task, machine, VersionKind::Primary);
  const auto& receiver = scenario.grid.machine(machine);
  for (const TaskId parent : scenario.dag.parents(task)) {
    const auto& pa = schedule.assignment(parent);
    const double bits =
        pa.machine == machine ? 0.0 : scenario.edge_bits(parent, task, pa.version);
    if (bits <= 0.0) {
      out.arrival_lb = std::max(out.arrival_lb, pa.finish);
      continue;
    }
    const auto& sender = scenario.grid.machine(pa.machine);
    const Cycles dur = sim::transfer_cycles(bits, sender, receiver);
    out.arrival_lb = std::max(out.arrival_lb, std::max(earliest, pa.finish) + dur);
    const double transfer = sim::transfer_energy(sender, dur);
    out.tec_delta_secondary += transfer;
    out.tec_delta_primary += transfer;
  }
  return out;
}

/// The frontier's ready set in ascending task id — the scan order of a full
/// pass over all subtasks: every task that joined it, less the ones assigned
/// since (a task leaves the ready set only by committing).
inline std::vector<TaskId> ready_tasks(const core::ReadyFrontier& frontier,
                                       const sim::Schedule& schedule) {
  std::vector<TaskId> ready;
  for (const TaskId task : frontier.joined()) {
    if (!schedule.is_assigned(task)) ready.push_back(task);
  }
  std::sort(ready.begin(), ready.end());
  return ready;
}

struct FullGatherPool {
  /// [0, live): live slots in pool order; [live, size): dead slots, unranked.
  std::vector<core::SlrhPoolCandidate> slots;
  std::size_t live = 0;
  Cycles dead_min_arrival = core::SlrhPool::kNoDead;
  std::size_t rejected_energy = 0;

  bool empty() const noexcept { return slots.empty(); }
};

/// The pool of (machine, clock) from every ready task: gather and score the
/// whole ready set against the machine, put the slots whose arrival bound
/// lies within clock + H first (ranked) and the rest after them, and take
/// the dead slots' smallest bound. `rows` and `batch` are the oracle's own.
inline FullGatherPool full_gather_pool_oracle(
    const workload::Scenario& scenario, const core::ScenarioCache& cache,
    const core::ReadyFrontier& frontier, const sim::Schedule& schedule,
    const core::SlrhParams& params, const core::ObjectiveTotals& totals,
    MachineId machine, Cycles clock, core::GatherRows& rows,
    core::CandidateBatch& batch) {
  FullGatherPool out;
  batch.start(schedule, machine, clock, params.weights, totals, params.aet_sign);
  out.rejected_energy =
      core::gather_candidates(cache, scenario, schedule, ready_tasks(frontier, schedule),
                              params.secondary_only, rows, batch);
  const Cycles limit = clock + params.horizon;
  std::vector<core::SlrhPoolCandidate> dead;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::SlrhPoolCandidate& cand = batch.slots[i];
    if (cand.arrival_lb > limit) {
      dead.push_back(cand);
      out.dead_min_arrival = std::min(out.dead_min_arrival, cand.arrival_lb);
    } else {
      out.slots.push_back(cand);
    }
  }
  std::sort(out.slots.begin(), out.slots.end(), core::ranks_before);
  out.live = out.slots.size();
  out.slots.insert(out.slots.end(), dead.begin(), dead.end());
  return out;
}

struct WalkRejection {
  TaskId task = kInvalidTask;
  core::Reject reject = core::Reject::BeyondHorizon;
};

/// The SLRH map walk over `pool` — every slot, in pool order — from
/// `skip_before`: reject an assigned task, then one whose energy ran out
/// (primary falls back to secondary), then one `memo` (indexed by task,
/// cleared per scope) already proved beyond the horizon, then one whose
/// arrival bound lies beyond clock + H; plan the rest and commit the first
/// whose data is ready within the horizon. Returns the committed index (the
/// plan is the schedule's assignment of its task) or npos; `min_beyond`
/// takes the running minimum of every beyond-horizon arrival (planned or
/// bounded), `rejected` lists the passed-over slots.
inline std::size_t map_first_startable_oracle(
    const workload::Scenario& scenario, sim::Schedule& schedule,
    const core::SlrhParams& params, const std::vector<core::SlrhPoolCandidate>& pool,
    MachineId machine, Cycles clock, const core::ScenarioCache& cache,
    std::vector<std::uint8_t>& memo, std::size_t skip_before, Cycles& min_beyond,
    std::vector<WalkRejection>& rejected) {
  const auto fits = [&](TaskId task, VersionKind version) {
    return core::version_fits_energy(cache, schedule, task, machine, version);
  };
  for (std::size_t k = skip_before; k < pool.size(); ++k) {
    const core::SlrhPoolCandidate& cand = pool[k];
    if (schedule.is_assigned(cand.task)) {
      rejected.push_back({cand.task, core::Reject::AlreadyAssigned});
      continue;
    }
    VersionKind version = cand.version;
    if (!fits(cand.task, version)) {
      if (version == VersionKind::Primary && fits(cand.task, VersionKind::Secondary)) {
        version = VersionKind::Secondary;
      } else {
        rejected.push_back({cand.task, core::Reject::EnergyExhausted});
        continue;
      }
    }
    if (memo[static_cast<std::size_t>(cand.task)] != 0) {
      rejected.push_back({cand.task, core::Reject::BeyondHorizon});
      continue;
    }
    if (cand.arrival_lb > clock + params.horizon) {
      min_beyond = std::min(min_beyond, cand.arrival_lb);
      rejected.push_back({cand.task, core::Reject::BeyondHorizon});
      continue;
    }
    const core::PlacementPlan plan =
        core::plan_placement(scenario, schedule, cand.task, machine, version, clock);
    if (std::max(clock, plan.arrival) <= clock + params.horizon) {
      core::commit_placement(scenario, schedule, plan);
      return k;
    }
    memo[static_cast<std::size_t>(cand.task)] = 1;
    min_beyond = std::min(min_beyond, plan.arrival);
    rejected.push_back({cand.task, core::Reject::BeyondHorizon});
  }
  return static_cast<std::size_t>(-1);
}

struct ScanMaxMax {
  std::shared_ptr<sim::Schedule> schedule;
  std::size_t iterations = 0;  ///< selection rounds, the stalled one included
  std::size_t exclusions = 0;  ///< triplets whose exact plan overshot tau
};

/// Max-Max (core/maxmax.hpp) without its candidate table: each round rescans
/// the whole frontier. The selection order, the critical-path deadline test
/// and the exclusion loop are run_maxmax's; the tail lookahead takes its
/// per-task minimum from scenario.exec_cycles instead of the ScenarioCache.
inline ScanMaxMax scan_maxmax_oracle(const workload::Scenario& scenario,
                                     const core::MaxMaxParams& params) {
  struct Triplet {
    TaskId task = kInvalidTask;
    MachineId machine = kInvalidMachine;
    VersionKind version = VersionKind::Primary;
    double score = 0.0;
    Cycles finish_est = 0;

    bool valid() const noexcept { return task != kInvalidTask; }
    bool better_than(const Triplet& other) const noexcept {
      if (!other.valid()) return true;
      if (score != other.score) return score > other.score;
      if (finish_est != other.finish_est) return finish_est < other.finish_est;
      if (task != other.task) return task < other.task;
      if (machine != other.machine) return machine < other.machine;
      return version == VersionKind::Primary && other.version == VersionKind::Secondary;
    }
  };

  ScanMaxMax out;
  out.schedule = core::make_schedule(scenario);
  sim::Schedule& schedule = *out.schedule;
  const core::ObjectiveTotals totals = core::objective_totals(scenario);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());

  std::vector<std::size_t> unmapped_parents(scenario.num_tasks(), 0);
  std::vector<TaskId> frontier;
  for (TaskId t = 0; t < num_tasks; ++t) {
    unmapped_parents[static_cast<std::size_t>(t)] = scenario.dag.parents(t).size();
    if (unmapped_parents[static_cast<std::size_t>(t)] == 0) frontier.push_back(t);
  }

  std::vector<Cycles> tail(scenario.num_tasks(), 0);
  if (params.enforce_tau) {
    const auto order = scenario.dag.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const TaskId t = *it;
      Cycles min_exec = std::numeric_limits<Cycles>::max();
      for (MachineId m = 0; m < num_machines; ++m) {
        min_exec = std::min(min_exec, scenario.exec_cycles(t, m, VersionKind::Secondary));
      }
      for (const TaskId parent : scenario.dag.parents(t)) {
        tail[static_cast<std::size_t>(parent)] =
            std::max(tail[static_cast<std::size_t>(parent)],
                     min_exec + tail[static_cast<std::size_t>(t)]);
      }
    }
  }

  std::set<std::tuple<TaskId, MachineId, VersionKind>> excluded;
  while (!schedule.complete()) {
    ++out.iterations;
    Triplet best;
    core::PlacementPlan best_plan;
    for (;;) {
      best = Triplet{};
      for (const TaskId task : frontier) {
        Cycles arrival_lb = scenario.release(task);
        for (const TaskId parent : scenario.dag.parents(task)) {
          arrival_lb = std::max(arrival_lb, schedule.assignment(parent).finish);
        }
        for (MachineId machine = 0; machine < num_machines; ++machine) {
          for (const VersionKind version :
               {VersionKind::Primary, VersionKind::Secondary}) {
            if (excluded.contains({task, machine, version})) continue;
            if (!core::version_fits_energy(scenario, schedule, task, machine, version)) {
              continue;
            }
            const Cycles exec = scenario.exec_cycles(task, machine, version);
            const Cycles start_est =
                schedule.compute_timeline(machine).earliest_fit(arrival_lb, exec);
            const Cycles finish_est = start_est + exec;
            if (params.enforce_tau &&
                finish_est + tail[static_cast<std::size_t>(task)] > scenario.tau) {
              continue;
            }
            const double score = core::score_candidate_with_finish(
                scenario, schedule, params.weights, totals, task, machine, version,
                finish_est, params.aet_sign);
            const Triplet triplet{task, machine, version, score, finish_est};
            if (triplet.better_than(best)) best = triplet;
          }
        }
      }
      if (!best.valid()) break;
      best_plan = core::plan_placement(scenario, schedule, best.task, best.machine,
                                       best.version, /*not_before=*/0);
      if (!params.enforce_tau ||
          best_plan.finish() + tail[static_cast<std::size_t>(best.task)] <=
              scenario.tau) {
        break;
      }
      excluded.insert({best.task, best.machine, best.version});
      ++out.exclusions;
    }
    if (!best.valid()) break;

    core::commit_placement(scenario, schedule, best_plan);
    excluded.clear();
    frontier.erase(std::find(frontier.begin(), frontier.end(), best.task));
    for (const TaskId child : scenario.dag.children(best.task)) {
      if (--unmapped_parents[static_cast<std::size_t>(child)] == 0) {
        frontier.push_back(child);
      }
    }
    std::sort(frontier.begin(), frontier.end());
  }
  return out;
}

/// Which assigned subtasks lost their work to the departures seen so far.
/// Seed: unfinished subtasks on departed machines (the orphans). A COMPLETED
/// subtask on a departed machine survives only while every data-carrying
/// output edge is satisfied: consumed on the same machine by a surviving
/// child, or transmitted cross-machine before the departure to a surviving
/// child. Invalidation cascades to every mapped descendant (through all
/// edges), so kept = assigned && !invalid stays ancestor-closed and the
/// independent validator passes on the rebuilt schedule. The cascade can in
/// turn unsatisfy another departed machine's outputs, hence the fixpoint.
inline std::vector<char> invalid_fixpoint_oracle(const workload::Scenario& scenario,
                                                 const sim::Schedule& schedule,
                                                 const std::vector<char>& departed,
                                                 const std::vector<char>& extra_seed) {
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  std::vector<char> invalid = extra_seed;
  const auto is_departed = [&](MachineId m) {
    return departed[static_cast<std::size_t>(m)] != 0;
  };
  const auto flag = [&](TaskId t) -> char& {
    return invalid[static_cast<std::size_t>(t)];
  };

  for (TaskId t = 0; t < num_tasks; ++t) {
    if (!schedule.is_assigned(t)) continue;
    const auto& a = schedule.assignment(t);
    if (is_departed(a.machine) && a.finish > scenario.machine_depart(a.machine)) {
      flag(t) = 1;
    }
  }

  std::unordered_map<std::uint64_t, Cycles> comm_finish;
  for (const auto& ev : schedule.comm_events()) {
    comm_finish.emplace(sim::edge_key(ev.from_task, ev.to_task), ev.finish);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    // Downward closure in topological order: one pass settles a whole chain.
    for (const TaskId t : scenario.dag.topological_order()) {
      if (!schedule.is_assigned(t) || flag(t) != 0) continue;
      for (const TaskId parent : scenario.dag.parents(t)) {
        if (flag(parent) != 0) {
          flag(t) = 1;
          changed = true;
          break;
        }
      }
    }
    // Output survival on departed machines.
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (!schedule.is_assigned(t) || flag(t) != 0) continue;
      const auto& a = schedule.assignment(t);
      if (!is_departed(a.machine)) continue;
      const Cycles depart = scenario.machine_depart(a.machine);
      bool lost = false;
      for (const TaskId child : scenario.dag.children(t)) {
        if (scenario.edge_bits(t, child, a.version) <= 0.0) continue;
        if (!schedule.is_assigned(child) || flag(child) != 0) {
          lost = true;
          break;
        }
        if (schedule.assignment(child).machine == a.machine) continue;
        const auto it = comm_finish.find(sim::edge_key(t, child));
        if (it == comm_finish.end() || it->second > depart) {
          lost = true;
          break;
        }
      }
      if (lost) {
        flag(t) = 1;
        changed = true;
      }
    }
  }
  return invalid;
}

/// (task, version) on `machine` at or after `not_before`, planned through
/// overlay copies: the sender's tx and the receiver's rx timeline are copied
/// (each once, on first use) and every planned transfer is booked into the
/// copies, so later parents fit around it.
inline core::PlacementPlan overlay_plan_oracle(const workload::Scenario& scenario,
                                               const sim::Schedule& schedule,
                                               TaskId task, MachineId machine,
                                               VersionKind version,
                                               Cycles not_before) {
  core::PlacementPlan plan;
  plan.task = task;
  plan.machine = machine;
  plan.version = version;
  plan.duration = scenario.exec_cycles(task, machine, version);
  plan.exec_energy = core::exec_energy(scenario, task, machine, version);
  const Cycles release = scenario.release(task);

  std::vector<TaskId> parents(scenario.dag.parents(task).begin(),
                              scenario.dag.parents(task).end());
  std::sort(parents.begin(), parents.end());

  std::optional<sim::Timeline> rx_overlay;
  std::map<MachineId, sim::Timeline> tx_overlays;

  Cycles arrival = 0;
  for (const TaskId parent : parents) {
    const auto& pa = schedule.assignment(parent);
    const double bits = scenario.edge_bits(parent, task, pa.version);
    if (pa.machine == machine || bits <= 0.0) {
      arrival = std::max(arrival, pa.finish);
      if (bits > 0.0) plan.released_parents.push_back(parent);
      continue;
    }
    const auto& sender = scenario.grid.machine(pa.machine);
    const auto& receiver = scenario.grid.machine(machine);
    const Cycles dur = sim::transfer_cycles(bits, sender, receiver);
    auto [it, inserted] = tx_overlays.try_emplace(pa.machine);
    if (inserted) it->second = schedule.tx_timeline(pa.machine);
    sim::Timeline& tx_overlay = it->second;
    if (!rx_overlay.has_value()) rx_overlay = schedule.rx_timeline(machine);

    const Cycles earliest = std::max(not_before, pa.finish);
    const Cycles start =
        sim::Timeline::earliest_fit_pair(tx_overlay, *rx_overlay, earliest, dur);
    tx_overlay.insert(start, dur);
    rx_overlay->insert(start, dur);

    core::CommPlan comm;
    comm.parent = parent;
    comm.from_machine = pa.machine;
    comm.start = start;
    comm.duration = dur;
    comm.bits = bits;
    comm.energy = sim::transfer_energy(sender, dur);
    plan.comms.push_back(comm);
    arrival = std::max(arrival, start + dur);
  }

  plan.arrival = arrival;
  plan.start = schedule.compute_timeline(machine).earliest_fit(
      std::max({not_before, arrival, release}), plan.duration);
  return plan;
}

}  // namespace ahg::test
