#include "core/scoring.hpp"

#include <algorithm>
#include <limits>

#include "core/feasibility.hpp"
#include "core/scenario_cache.hpp"
#include "support/contract.hpp"

namespace ahg::core {

ObjectiveTotals objective_totals(const workload::Scenario& scenario) {
  return ObjectiveTotals{scenario.num_tasks(), scenario.grid.total_system_energy(),
                         scenario.tau};
}

double score_candidate(const workload::Scenario& scenario,
                       const sim::Schedule& schedule, const Weights& weights,
                       const ObjectiveTotals& totals, TaskId task,
                       MachineId machine, VersionKind version, Cycles earliest,
                       AetSign aet_sign) {
  const Cycles duration = scenario.exec_cycles(task, machine, version);
  const Cycles finish_est =
      std::max(earliest, schedule.machine_ready(machine)) + duration;
  return score_candidate_with_finish(scenario, schedule, weights, totals, task,
                                     machine, version, finish_est, aet_sign);
}

namespace {

/// The global state the schedule WOULD have if (task, version) were mapped
/// to machine finishing at finish_est — the quantity both the scalar score
/// and the traced term breakdown evaluate the objective on. `task_exec_energy`
/// is exec_energy(scenario, task, machine, version), supplied by the caller
/// so the cached overload can feed the precomputed (bit-identical) value.
ObjectiveState hypothetical_state(const workload::Scenario& scenario,
                                  const sim::Schedule& schedule, TaskId task,
                                  MachineId machine, VersionKind version,
                                  Cycles finish_est, double task_exec_energy) {
  const ParentTerms parents = walk_parents(scenario, schedule, task, machine,
                                           task_exec_energy, task_exec_energy);

  ObjectiveState state;
  state.t100 = schedule.t100() + (version == VersionKind::Primary ? 1 : 0);
  state.tec = schedule.tec() + parents.tec_delta_primary;
  state.aet = std::max(schedule.aet(), finish_est);
  return state;
}

}  // namespace

double score_candidate(const ScenarioCache& cache,
                       const workload::Scenario& scenario,
                       const sim::Schedule& schedule, const Weights& weights,
                       const ObjectiveTotals& totals, TaskId task,
                       MachineId machine, VersionKind version, Cycles earliest,
                       AetSign aet_sign) {
  const Cycles duration = cache.exec_cycles(task, machine, version);
  const Cycles finish_est =
      std::max(earliest, schedule.machine_ready(machine)) + duration;
  const ObjectiveState state =
      hypothetical_state(scenario, schedule, task, machine, version, finish_est,
                         cache.exec_energy(task, machine, version));
  return objective_value(weights, state, totals, aet_sign);
}

double score_candidate_with_finish(const workload::Scenario& scenario,
                                   const sim::Schedule& schedule,
                                   const Weights& weights,
                                   const ObjectiveTotals& totals, TaskId task,
                                   MachineId machine, VersionKind version,
                                   Cycles finish_est, AetSign aet_sign) {
  const ObjectiveState state =
      hypothetical_state(scenario, schedule, task, machine, version, finish_est,
                         exec_energy(scenario, task, machine, version));
  return objective_value(weights, state, totals, aet_sign);
}

ObjectiveTerms score_candidate_terms(const workload::Scenario& scenario,
                                     const sim::Schedule& schedule,
                                     const Weights& weights,
                                     const ObjectiveTotals& totals, TaskId task,
                                     MachineId machine, VersionKind version,
                                     Cycles finish_est, AetSign aet_sign) {
  const ObjectiveState state =
      hypothetical_state(scenario, schedule, task, machine, version, finish_est,
                         exec_energy(scenario, task, machine, version));
  return objective_terms(weights, state, totals, aet_sign);
}

// --- parent terms -----------------------------------------------------------

GatherRows::GatherRows(std::size_t num_tasks, std::size_t num_machines)
    : num_machines_(num_machines),
      row_of_(num_tasks, kNoRow),
      committed_(num_tasks, 0),
      activation_(num_machines) {}

const ParentTerms& GatherRows::terms(const ScenarioCache& cache,
                                     const workload::Scenario& scenario,
                                     const sim::Schedule& schedule, TaskId task,
                                     MachineId machine) {
  std::uint32_t& row = row_of_[static_cast<std::size_t>(task)];
  if (row == kNoRow) {
    if (free_.empty()) {
      row = static_cast<std::uint32_t>(entries_.size() / num_machines_);
      entries_.resize(entries_.size() + num_machines_);
      filled_.resize(filled_.size() + num_machines_, 0);
    } else {
      row = free_.back();
      free_.pop_back();
    }
    ++in_use_;
  }
  const std::size_t e = static_cast<std::size_t>(row) * num_machines_ +
                        static_cast<std::size_t>(machine);
  if (filled_[e] == 0) {
    entries_[e] = walk_parents(scenario, schedule, task, machine,
                               cache.exec_energy(task, machine, VersionKind::Secondary),
                               cache.exec_energy(task, machine, VersionKind::Primary));
    filled_[e] = 1;
  }
  return entries_[e];
}

void GatherRows::drop(TaskId task) noexcept {
  committed_[static_cast<std::size_t>(task)] = 1;
  std::uint32_t& row = row_of_[static_cast<std::size_t>(task)];
  if (row == kNoRow) return;
  const auto first = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(row) *
                                                 num_machines_);
  std::fill_n(filled_.begin() + first, num_machines_, std::uint8_t{0});
  free_.push_back(row);
  row = kNoRow;
  --in_use_;
}

namespace {

/// The pool admission: the secondary version's worst-case need fits the
/// machine's energy_headroom — version_fits_energy's verdict, against the
/// hoisted right-hand side.
bool admitted(const ScenarioCache& cache, TaskId task, MachineId machine,
              double headroom) {
  return cache.energy_need(task, machine, VersionKind::Secondary) <= headroom;
}

}  // namespace

std::span<const TaskId> GatherRows::activate(const ScenarioCache& cache,
                                             const workload::Scenario& scenario,
                                             const sim::Schedule& schedule,
                                             std::span<const TaskId> joined,
                                             MachineId machine, Cycles clock,
                                             Cycles horizon, double headroom) {
  if (horizon_ < 0) horizon_ = horizon;
  AHG_EXPECTS_MSG(horizon == horizon_, "the activation index is keyed on one horizon");
  Activation& index = activation_[static_cast<std::size_t>(machine)];
  AHG_EXPECTS_MSG(clock >= index.clock, "the activation index cannot go back in time");
  index.clock = clock;
  const Cycles limit = clock + horizon;

  // Committed tasks leave lazily: the live and side lists shed them here,
  // pending ones when they reach the back of the list (or in dead()).
  const auto committed = [this](TaskId task) { return dropped(task); };
  std::erase_if(index.live, committed);
  std::erase_if(index.beyond, committed);

  // One entry fill, then the task's class for the rest of the window.
  const auto classify = [&](TaskId task) {
    const ParentTerms& parents = terms(cache, scenario, schedule, task, machine);
    if (parents.transfer_max > horizon) {
      index.beyond.push_back(task);
    } else if (parents.arrival_base <= limit) {
      index.live.push_back(task);
    } else {
      const Pending entry{parents.arrival_base, task};
      const auto later = [](const Pending& a, const Pending& b) {
        return a.arrival_base != b.arrival_base ? a.arrival_base > b.arrival_base
                                                : a.task > b.task;
      };
      index.pending.insert(
          std::upper_bound(index.pending.begin(), index.pending.end(), entry, later),
          entry);
    }
  };
  // A task the machine cannot admit gets no entry yet (the full gather
  // filled one only on admission too); the headroom can grow back, so it
  // is tested again at every build.
  std::size_t kept = 0;
  for (const TaskId task : index.unadmitted) {
    if (dropped(task)) continue;
    if (admitted(cache, task, machine, headroom)) {
      classify(task);
    } else {
      index.unadmitted[kept++] = task;
    }
  }
  index.unadmitted.resize(kept);
  for (; index.joined_read < joined.size(); ++index.joined_read) {
    const TaskId task = joined[index.joined_read];
    if (dropped(task)) continue;
    if (admitted(cache, task, machine, headroom)) {
      classify(task);
    } else {
      index.unadmitted.push_back(task);
    }
  }

  // With D <= H the bound is within clock + H exactly when A is. Dropped
  // tasks at the back go too, so dead_min_arrival does not rescan them.
  while (!index.pending.empty()) {
    const Pending& next = index.pending.back();
    if (dropped(next.task)) {
      index.pending.pop_back();
      continue;
    }
    if (next.arrival_base > limit) break;
    index.live.push_back(next.task);
    index.pending.pop_back();
  }
  return index.live;
}

Cycles GatherRows::dead_min_arrival(const ScenarioCache& cache, MachineId machine,
                                    Cycles clock, double headroom) const {
  const Activation& index = activation_[static_cast<std::size_t>(machine)];
  Cycles min_arrival = std::numeric_limits<Cycles>::max();
  // A pending bound is A itself (clock + D <= clock + H < A), and the list
  // is in A order: the first admitted one holds the minimum.
  for (auto it = index.pending.rbegin(); it != index.pending.rend(); ++it) {
    if (!dropped(it->task) && admitted(cache, it->task, machine, headroom)) {
      min_arrival = it->arrival_base;
      break;
    }
  }
  for (const TaskId task : index.beyond) {
    if (!admitted(cache, task, machine, headroom)) continue;
    min_arrival = std::min(min_arrival, filled_terms(task, machine).arrival_lb(clock));
  }
  return min_arrival;
}

std::span<const TaskId> GatherRows::dead(MachineId machine) {
  Activation& index = activation_[static_cast<std::size_t>(machine)];
  std::erase_if(index.pending, [&](const Pending& p) { return dropped(p.task); });
  dead_.clear();
  for (const Pending& p : index.pending) dead_.push_back(p.task);
  dead_.insert(dead_.end(), index.beyond.begin(), index.beyond.end());
  dead_.insert(dead_.end(), index.unadmitted.begin(), index.unadmitted.end());
  return dead_;
}

// --- fused gather-and-score ---------------------------------------------

void CandidateBatch::start(const sim::Schedule& schedule, MachineId machine_id,
                           Cycles earliest_clock, const Weights& weights,
                           const ObjectiveTotals& totals, AetSign aet_sign) {
  machine = machine_id;
  earliest = earliest_clock;
  // Pure during a pool build; max(earliest, ready) is integer, so hoisting
  // it is exact.
  headroom = energy_headroom(schedule, machine);
  start_base = std::max(earliest, schedule.machine_ready(machine));
  pricer = ObjectivePricer(weights, totals, aet_sign,
                           {schedule.t100(), schedule.tec(), schedule.aet()});
  count_ = 0;  // slots keep their high-water storage
}

std::size_t gather_candidates(const ScenarioCache& cache,
                              const workload::Scenario& scenario,
                              const sim::Schedule& schedule,
                              std::span<const TaskId> tasks,
                              const std::vector<std::uint8_t>* secondary_only,
                              GatherRows& rows, CandidateBatch& batch) {
  // Grow the slots to the high-water count and fill by index: shrinking to
  // the slot count and regrowing next build would value-initialize the
  // regrown tail on every pool build, which the SLRH driver pays thousands
  // of times per run.
  const std::size_t cap = batch.count_ + tasks.size();
  if (batch.slots.size() < cap) batch.slots.resize(cap);
  const MachineId machine = batch.machine;
  const double headroom = batch.headroom;
  const ObjectivePricer& pricer = batch.pricer;

  std::size_t slot = batch.count_;
  std::size_t rejected_energy = 0;
  for (const TaskId task : tasks) {
    if (!admitted(cache, task, machine, headroom)) {
      ++rejected_energy;
      continue;
    }
    // Both tec-delta chains and the arrival bound come from the task's row:
    // its parents are committed, so the entry filled by the first gather of
    // this (task, machine) pair holds for every later build in the window.
    const ParentTerms& parents = rows.terms(cache, scenario, schedule, task, machine);
    SlrhPoolCandidate& out = batch.slots[slot++];
    out.task = task;
    out.version = VersionKind::Secondary;
    out.score = pricer.value(
        VersionKind::Secondary, parents.tec_delta_secondary,
        batch.start_base + cache.exec_cycles(task, machine, VersionKind::Secondary));
    out.arrival_lb = parents.arrival_lb(batch.earliest);
    // Primary is considered iff the degrade mask allows it and its need
    // fits too, and chosen iff it scores at least the secondary's.
    const bool degraded = secondary_only != nullptr &&
                          (*secondary_only)[static_cast<std::size_t>(task)] != 0;
    if (!degraded && cache.energy_need(task, machine, VersionKind::Primary) <= headroom) {
      const double primary = pricer.value(
          VersionKind::Primary, parents.tec_delta_primary,
          batch.start_base + cache.exec_cycles(task, machine, VersionKind::Primary));
      if (primary >= out.score) {
        out.version = VersionKind::Primary;
        out.score = primary;
      }
    }
  }
  batch.count_ = slot;
  return rejected_energy;
}

}  // namespace ahg::core
