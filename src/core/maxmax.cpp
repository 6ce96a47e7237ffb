#include "core/maxmax.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/taps.hpp"
#include "sim/timeline.hpp"
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

/// The candidate table (DESIGN.md §4j): one row per frontier task, one entry
/// per (machine, version). An entry's finish estimate depends only on the
/// task's arrival lower bound (its committed parents: fixed once it joins the
/// frontier) and its machine's compute timeline, so a commit can stale only
/// entries of the committed machine's column, and of those only the ones whose
/// slot the booking overlaps. Its tec delta and admission energy need
/// depend only on where the parents landed and on the scenario: fixed for the
/// row's lifetime. Energy headroom is NOT cached: a commit can raise it on
/// other machines (add_comm settles a reservation at or below the held
/// amount; released parents drop their holds), so every round re-reads it.
/// Row order is free (a mapped task's row is swap-removed): better_than is a
/// strict total order over distinct triplets, so the best entry does not
/// depend on the order the entries are visited in.
class CandidateTable {
 public:
  CandidateTable(const workload::Scenario& scenario, const ScenarioCache& cache,
                 const std::vector<Cycles>& tail, bool enforce_tau)
      : scenario_(scenario),
        cache_(cache),
        tail_(tail),
        deadline_(enforce_tau ? scenario.tau : std::numeric_limits<Cycles>::max()),
        num_machines_(scenario.num_machines()),
        row_of_(scenario.num_tasks(), kNoRow),
        headroom_(scenario.num_machines()) {}

  /// Fill the row of `task`, which just joined the frontier: one walk over
  /// its parents for the arrival lower bound, then one walk_parents per
  /// machine for both versions' tec deltas.
  void add(const sim::Schedule& schedule, TaskId task) {
    const std::size_t row = tasks_.size();
    row_of_[static_cast<std::size_t>(task)] = row;
    tasks_.push_back(task);
    Cycles arrival_lb = scenario_.release(task);
    for (const TaskId parent : scenario_.dag.parents(task)) {
      arrival_lb = std::max(arrival_lb, schedule.assignment(parent).finish);
    }
    arrival_lb_.push_back(arrival_lb);
    const std::size_t width = num_machines_ * 2;
    finish_.resize(finish_.size() + width);
    tec_delta_.resize(tec_delta_.size() + width);
    need_.resize(need_.size() + width);
    excluded_.resize(excluded_.size() + width, 0);
    for (MachineId machine = 0; machine < static_cast<MachineId>(num_machines_);
         ++machine) {
      const ParentTerms parents = walk_parents(
          scenario_, schedule, task, machine,
          cache_.exec_energy(task, machine, VersionKind::Secondary),
          cache_.exec_energy(task, machine, VersionKind::Primary));
      const std::size_t e = entry(row, machine, VersionKind::Primary);
      tec_delta_[e] = parents.tec_delta_primary;
      tec_delta_[e + 1] = parents.tec_delta_secondary;
      need_[e] = cache_.energy_need(task, machine, VersionKind::Primary);
      need_[e + 1] = cache_.energy_need(task, machine, VersionKind::Secondary);
      price(schedule, row, machine);
    }
  }

  /// Drop the row of `task` (mapped); the last row moves into its place.
  void remove(TaskId task) {
    const std::size_t row = row_of_[static_cast<std::size_t>(task)];
    const std::size_t last = tasks_.size() - 1;
    row_of_[static_cast<std::size_t>(task)] = kNoRow;
    if (row != last) {
      tasks_[row] = tasks_[last];
      arrival_lb_[row] = arrival_lb_[last];
      row_of_[static_cast<std::size_t>(tasks_[row])] = row;
      const std::size_t width = num_machines_ * 2;
      const auto move_row = [&](auto& column) {
        std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(last * width), width,
                    column.begin() + static_cast<std::ptrdiff_t>(row * width));
      };
      move_row(finish_);
      move_row(tec_delta_);
      move_row(need_);
      move_row(excluded_);
    }
    tasks_.pop_back();
    arrival_lb_.pop_back();
    const std::size_t size = tasks_.size() * num_machines_ * 2;
    finish_.resize(size);
    tec_delta_.resize(size);
    need_.resize(size);
    excluded_.resize(size);
  }

  /// Re-price the finish estimates on `machine` that its new booking
  /// [start, end) stales. A booking only removes free time, so an entry whose
  /// slot [finish - exec, finish) misses it keeps its earliest fit. An entry
  /// whose slot it overlaps has no free start left in [old fit, end), so its
  /// fit from arrival_lb is the fit from `end`. A zero-length slot fits
  /// anywhere and never goes stale.
  void refresh(const sim::Schedule& schedule, MachineId machine, Cycles start,
               Cycles end) {
    const sim::Timeline& timeline = schedule.compute_timeline(machine);
    for (std::size_t row = 0; row < tasks_.size(); ++row) {
      for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
        const std::size_t e = entry(row, machine, version);
        Cycles& finish = finish_[e];
        if (need_[e] == kBarred || finish <= start) continue;
        // Derived from the ETC on every read: only for entries that can
        // overlap the booking.
        const Cycles exec = cache_.exec_cycles(tasks_[row], machine, version);
        if (exec == 0 || finish - exec >= end) continue;
        finish = timeline.earliest_fit(end, exec) + exec;
        bar_late(row, e);
        ++entries_priced_;
      }
    }
  }

  /// Entries priced so far: every entry a row adds plus every re-price.
  std::uint64_t entries_priced() const noexcept { return entries_priced_; }

  /// The best admissible entry under Triplet::better_than, or an invalid
  /// triplet when none is left. The schedule's totals and every machine's
  /// energy headroom are read once per call; each entry is priced by the
  /// objective's pricer around the schedule's state, so its score is
  /// score_candidate_with_finish's.
  Triplet select(const sim::Schedule& schedule, const MaxMaxParams& params,
                 const ObjectiveTotals& totals) {
    for (MachineId m = 0; m < static_cast<MachineId>(num_machines_); ++m) {
      headroom_[static_cast<std::size_t>(m)] = energy_headroom(schedule, m);
    }
    const ObjectivePricer pricer(params.weights, totals, params.aet_sign,
                                 {schedule.t100(), schedule.tec(), schedule.aet()});
    Triplet best;
    for (std::size_t row = 0; row < tasks_.size(); ++row) {
      const TaskId task = tasks_[row];
      for (MachineId machine = 0; machine < static_cast<MachineId>(num_machines_);
           ++machine) {
        const double headroom = headroom_[static_cast<std::size_t>(machine)];
        for (const VersionKind version :
             {VersionKind::Primary, VersionKind::Secondary}) {
          const std::size_t e = entry(row, machine, version);
          if (excluded_[e] != 0 || !(need_[e] <= headroom)) continue;
          const Cycles finish_est = finish_[e];
          const double score = pricer.value(version, tec_delta_[e], finish_est);
          // A lower score never wins: skip the tie-break.
          if (score < best.score && best.valid()) continue;
          const Triplet triplet{task, machine, version, score, finish_est};
          if (triplet.better_than(best)) best = triplet;
        }
      }
    }
    return best;
  }

  /// Bar `triplet` from selection until clear_exclusions().
  void exclude(const Triplet& triplet) {
    const std::size_t e = entry(row_of_[static_cast<std::size_t>(triplet.task)],
                                triplet.machine, triplet.version);
    excluded_[e] = 1;
    excluded_entries_.push_back(e);
  }

  void clear_exclusions() {
    for (const std::size_t e : excluded_entries_) excluded_[e] = 0;
    excluded_entries_.clear();
  }

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  static constexpr double kBarred = std::numeric_limits<double>::infinity();

  std::size_t entry(std::size_t row, MachineId machine, VersionKind version) const {
    return (row * num_machines_ + static_cast<std::size_t>(machine)) * 2 +
           (version == VersionKind::Primary ? 0 : 1);
  }

  /// Hole-aware finish estimates of both versions on `machine`: earliest fit
  /// (served by the timeline's ordered hole index) from the arrival lower
  /// bound. Max-Max backfills, so an append-style "ready + exec" estimate
  /// would misprice every candidate once any machine has a late booking.
  void price(const sim::Schedule& schedule, std::size_t row, MachineId machine) {
    const TaskId task = tasks_[row];
    const sim::Timeline& timeline = schedule.compute_timeline(machine);
    for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
      const Cycles exec = cache_.exec_cycles(task, machine, version);
      const std::size_t e = entry(row, machine, version);
      finish_[e] = timeline.earliest_fit(arrival_lb_[row], exec) + exec;
      bar_late(row, e);
    }
    entries_priced_ += 2;
  }

  /// An entry past the deadline test stays past it: its finish only grows
  /// and its tail is fixed. Bar it from admission for good.
  void bar_late(std::size_t row, std::size_t e) {
    if (finish_[e] + tail_[static_cast<std::size_t>(tasks_[row])] > deadline_) {
      need_[e] = kBarred;
    }
  }

  const workload::Scenario& scenario_;
  const ScenarioCache& cache_;
  const std::vector<Cycles>& tail_;
  Cycles deadline_;
  std::size_t num_machines_;
  std::vector<std::size_t> row_of_;  ///< task -> row, kNoRow off the frontier
  std::vector<double> headroom_;     ///< per machine, re-read every select

  // Rows.
  std::vector<TaskId> tasks_;
  std::vector<Cycles> arrival_lb_;  ///< max(release, parents' finish)
  // Entries, |M| x 2 per row (machine-major, primary first).
  std::vector<Cycles> finish_;         ///< stale when a booking overlaps its slot
  std::vector<double> tec_delta_;      ///< exec + incoming-transfer energy
  std::vector<double> need_;           ///< admission energy need; kBarred: late
  std::vector<std::uint8_t> excluded_;  ///< exact plan overshot tau this round
  std::vector<std::size_t> excluded_entries_;
  std::uint64_t entries_priced_ = 0;
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

  // The table catches up at the start of each selection (so its upkeep is
  // timed as selection): re-price what the last commit's booking overlaps,
  // then add the tasks that joined the frontier.
  CandidateTable table(scenario, cache, tail, params.enforce_tau);
  std::vector<TaskId> joined = frontier;
  MachineId committed = kInvalidMachine;
  sim::Interval booked;  // the last commit's compute interval on `committed`

  while (!schedule->complete()) {
    ++result.iterations;
    ++result.pools_built;
    const auto round = static_cast<Cycles>(result.iterations);

    Triplet best;
    PlacementPlan best_plan;
    taps.on_pool(frontier, round, [&] {
      if (committed != kInvalidMachine) {
        table.refresh(*schedule, committed, booked.start, booked.end);
      }
      for (const TaskId task : joined) table.add(*schedule, task);
      joined.clear();
      for (;;) {
        best = table.select(*schedule, params, totals);
        if (!best.valid()) break;
        best_plan = plan_placement(scenario, *schedule, best.task, best.machine,
                                   best.version, /*not_before=*/0);
        if (!params.enforce_tau ||
            best_plan.finish() + tail[static_cast<std::size_t>(best.task)] <=
                scenario.tau) {
          break;
        }
        // The exact plan (communication included) overshoots tau: the cheap
        // finish estimate ignores communication delays. Exclude this triplet
        // and re-select; exclusions reset per commit because every commit
        // changes the schedule.
        table.exclude(best);
      }
    });

    if (!best.valid()) {  // no feasible pair remains: stuck
      taps.on_stall(*schedule);
      break;
    }

    taps.on_commit(*schedule, best_plan,
                   {round, frontier.size(), best.score, best.finish_est},
                   [&] { commit_placement(scenario, *schedule, best_plan); });
    table.clear_exclusions();
    table.remove(best.task);
    committed = best.machine;
    booked = {best_plan.start, best_plan.finish()};

    // Update the frontier; children it gains are appended from first_ready.
    frontier.erase(std::find(frontier.begin(), frontier.end(), best.task));
    const std::size_t first_ready = frontier.size();
    for (const TaskId child : scenario.dag.children(best.task)) {
      if (--unmapped_parents[static_cast<std::size_t>(child)] == 0) {
        frontier.push_back(child);
        joined.push_back(child);
      }
    }
    taps.on_tick(*schedule, round, best.machine, frontier, first_ready);
    std::sort(frontier.begin(), frontier.end());
  }

  finalize_result(result, std::move(schedule), scenario.tau, timer.seconds());
  taps.on_run_end(result, table.entries_priced());
  return result;
}

}  // namespace ahg::core
