#include "core/slrh.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/sweep.hpp"
#include "core/taps.hpp"
#include "support/profile.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

std::string to_string(SlrhVariant variant) {
  switch (variant) {
    case SlrhVariant::V1: return "SLRH-1";
    case SlrhVariant::V2: return "SLRH-2";
    case SlrhVariant::V3: return "SLRH-3";
  }
  return "SLRH-?";
}

namespace {

/// Order the candidate pool by score descending (ties: smaller task id, for
/// determinism). Scores are distinct per task, so the result is independent
/// of the insertion order.
void sort_pool(std::vector<SlrhPoolCandidate>& pool) {
  std::sort(pool.begin(), pool.end(),
            [](const SlrhPoolCandidate& a, const SlrhPoolCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.task < b.task;
            });
}

/// Per-(machine, clock) memo of candidates whose exact placement was proven
/// beyond the horizon. Within one such scope a commit can only ADD channel
/// bookings and never reassigns a candidate's (already mapped) parents, so
/// plan_placement's arrival is monotonically non-decreasing across the
/// variant-2/3 re-walks — a candidate once beyond the horizon at this clock
/// stays beyond it, and re-planning it is pure waste. The arrival is also
/// version-independent (incoming edge volumes depend on the PARENTS'
/// committed versions), so one bit per task suffices. Generation stamping
/// makes scope resets O(1).
class BeyondHorizonMemo {
 public:
  explicit BeyondHorizonMemo(std::size_t num_tasks) : stamp_(num_tasks, 0) {}

  void begin_scope() noexcept { ++generation_; }

  bool contains(TaskId task) const noexcept {
    return stamp_[static_cast<std::size_t>(task)] == generation_;
  }

  void insert(TaskId task) noexcept {
    stamp_[static_cast<std::size_t>(task)] = generation_;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t generation_ = 1;
};

/// Walk the ordered pool and commit the first candidate whose exact
/// earliest start (communication included) falls within the horizon.
/// Returns the index into `pool` of the mapped candidate, or npos.
/// Admission energies come from the precomputed tables; `memo` skips
/// re-planning candidates already proven beyond-horizon in this
/// (machine, clock) scope.
/// `committed` receives a copy of the committed plan (the sweep epochs read
/// it). `taps` observes every passed-over candidate, plan and the commit.
/// `min_beyond` non-null accumulates (running min) the smallest proven lower
/// bound on the arrival of every candidate this walk found beyond the
/// horizon — exact for a planned candidate, the gather's arrival_lb for a
/// bound-pruned one — the raw material for the cross-tick skip verdicts
/// (core/sweep.hpp). Memo-skipped candidates were accumulated by the earlier
/// walk that inserted them; arrivals only move later within a scope, so
/// those remain valid lower bounds.
std::size_t map_first_startable(const workload::Scenario& scenario,
                                sim::Schedule& schedule, const SlrhParams& params,
                                const std::vector<SlrhPoolCandidate>& pool,
                                MachineId machine, Cycles clock,
                                const ScenarioCache& cache, BeyondHorizonMemo& memo,
                                Taps& taps, PlacementPlan& committed,
                                std::size_t skip_before, Cycles* min_beyond) {
  const auto fits = [&](TaskId task, VersionKind version) {
    return version_fits_energy(cache, schedule, task, machine, version);
  };
  const auto beyond_horizon = [&](const SlrhPoolCandidate& cand, Cycles arrival) {
    if (min_beyond != nullptr && arrival < *min_beyond) *min_beyond = arrival;
    taps.on_candidate(cand, Reject::BeyondHorizon);
  };
  for (std::size_t k = skip_before; k < pool.size(); ++k) {
    const SlrhPoolCandidate& cand = pool[k];
    if (schedule.is_assigned(cand.task)) {
      taps.on_candidate(cand, Reject::AlreadyAssigned);
      continue;
    }
    // Re-check energy: earlier commits in this timestep (variants 2/3) may
    // have consumed what the pool admission saw.
    VersionKind version = cand.version;
    if (!fits(cand.task, version)) {
      if (version == VersionKind::Primary &&
          fits(cand.task, VersionKind::Secondary)) {
        version = VersionKind::Secondary;
      } else {
        taps.on_candidate(cand, Reject::EnergyExhausted);
        continue;
      }
    }
    if (memo.contains(cand.task)) {
      // Proven beyond-horizon earlier in this (machine, clock) scope; the
      // arrival can only have moved later since. Same decision, no re-plan.
      taps.on_candidate(cand, Reject::BeyondHorizon);
      continue;
    }
    if (cand.arrival_lb > clock + params.horizon) {
      // The parents' data cannot land before the horizon even on idle
      // channels (plan.arrival >= arrival_lb); the parents stay put within
      // the scope, so the bound holds for every re-walk. No plan needed.
      beyond_horizon(cand, cand.arrival_lb);
      continue;
    }
    const PlacementPlan plan = taps.on_plan([&] {
      return plan_placement(scenario, schedule, cand.task, machine, version, clock);
    });
    // The horizon test uses the earliest possible start "given precedence
    // and communication requirements" (paper §IV) — i.e. data readiness on
    // this machine, NOT the machine's queue. For variant 1 the two coincide
    // (the machine is idle at the clock); for variants 2/3 this is what lets
    // them stack a queue of data-ready subtasks onto one machine within a
    // single timestep — and is exactly why SLRH-2 overloads machines and
    // rarely meets the constraints (paper §VII).
    const Cycles data_ready = std::max(clock, plan.arrival);
    if (data_ready <= clock + params.horizon) {
      taps.on_commit(schedule, plan, {clock, pool.size(), cand.score},
                     [&] { commit_placement(scenario, schedule, plan); });
      committed = plan;
      return k;
    }
    memo.insert(cand.task);
    beyond_horizon(cand, plan.arrival);
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

std::vector<SlrhPoolCandidate> build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, SlrhPoolRejects* rejects, obs::Histogram* scoring_histogram,
    CandidateBatch* scratch) {
  if (rejects != nullptr) {
    rejects->unreleased = frontier.num_unreleased();
    rejects->assigned = frontier.num_assigned_released();
    rejects->parents = frontier.num_parents_blocked();
  }
  CandidateBatch local;
  CandidateBatch& batch = scratch != nullptr ? *scratch : local;
  std::vector<SlrhPoolCandidate> pool;
  {
    // The scoring histogram covers gather + kernel (the admission compare
    // folded into the gather is noise). Telemetry only.
    obs::ProfileScope scoring(scoring_histogram);
    const std::size_t rejected_energy = build_candidate_batch(
        cache, scenario, schedule, frontier.ready(), machine, clock,
        params.secondary_only, batch);
    if (rejects != nullptr) rejects->energy = rejected_energy;
    score_batch(batch, params.weights, totals, schedule.t100(), schedule.tec(),
                schedule.aet(), params.aet_sign);
    pool.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      pool.push_back(
          {batch.task[i], batch.version[i], batch.score[i], batch.arrival_lb[i]});
    }
  }
  sort_pool(pool);
  return pool;
}

void drive_slrh(const workload::Scenario& scenario, const SlrhParams& params,
                sim::Schedule& schedule, Cycles start_clock, Cycles end_clock,
                MappingResult& result, Taps* run_taps) {
  params.validate();
  AHG_EXPECTS_MSG(start_clock >= 0, "start clock must be non-negative");
  const ObjectiveTotals totals = objective_totals(scenario);
  constexpr auto npos = static_cast<std::size_t>(-1);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  std::optional<Taps> window_taps;
  Taps& taps = run_taps != nullptr ? *run_taps : window_taps.emplace(scenario, params);
  taps.on_window(end_clock);

  // Inner-loop machinery (see DESIGN.md "Incremental frontier"): precomputed
  // pure-scenario tables (the caller's shared cache, else a run-local one),
  // the incremental ready frontier, and the beyond-horizon memo.
  std::optional<ScenarioCache> local_cache;
  const ScenarioCache& cache =
      params.cache != nullptr ? *params.cache : local_cache.emplace(scenario);
  ReadyFrontier frontier(scenario, schedule);
  frontier.set_ledger(params.ledger);
  BeyondHorizonMemo memo(scenario.num_tasks());

  // SoA scratch for the batched score kernel, reused across every pool build
  // of the window (allocation-free steady state).
  CandidateBatch batch_scratch;

  // Cross-tick skip verdicts (core/sweep.hpp), keyed on the frontier
  // revision and per-machine energy epochs; a fresh context per drive window
  // means churn segment boundaries invalidate everything cached.
  const bool reuse_on = params.pool_reuse;
  SweepContext sweep(scenario.num_machines());

  // One pool for the serial walk, built inline against the current schedule
  // (every commit moves the global t100/tec/aet terms that feed each score).
  const auto make_pool = [&](MachineId machine, Cycles clock) {
    ++result.pools_built;
    return taps.on_pool(machine, clock, [&](SlrhPoolRejects* rejects,
                                            obs::Histogram* scoring) {
      return build_slrh_pool_batched(scenario, cache, frontier, schedule, params,
                                     totals, machine, clock, rejects, scoring,
                                     &batch_scratch);
    });
  };

  // One map attempt over pool[skip_before..] (never empty: V1/V3 skip an
  // empty pool, V2 stops at its end). Every commit is mirrored into the
  // frontier and the sweep epochs immediately; a walk that commits nothing
  // is a stall.
  const auto try_map = [&](const std::vector<SlrhPoolCandidate>& pool,
                           MachineId machine, Cycles clock,
                           std::size_t skip_before, Cycles* min_beyond) {
    PlacementPlan committed;
    const std::size_t mapped = taps.on_walk([&] {
      return map_first_startable(scenario, schedule, params, pool, machine, clock,
                                 cache, memo, taps, committed, skip_before,
                                 min_beyond);
    });
    if (mapped != npos) {
      frontier.on_commit(pool[mapped].task);
      sweep.note_commit(committed);
    } else {
      taps.on_stall(clock, machine, pool.size());
    }
    return mapped;
  };

  for (Cycles clock = start_clock;
       !schedule.complete() && clock <= scenario.tau && clock < end_clock;
       clock += params.dt) {
    ++result.iterations;
    frontier.advance_to(clock);

    for (MachineId machine = 0; machine < num_machines; ++machine) {
      if (schedule.complete()) break;
      // Churn: a machine outside its presence window is invisible to the
      // sweep. Only CURRENT presence is consulted — SLRH never anticipates a
      // departure; it discovers one at the next timestep like any observer.
      if (!scenario.machine_available(machine, clock)) continue;
      if (schedule.machine_ready(machine) > clock) continue;  // not available
      if (reuse_on) {
        // O(1) cross-tick skip: the cached verdict proves the serial sweep
        // would build this machine's pool and map nothing from it.
        const bool skip =
            sweep.can_skip(machine, clock, params.horizon, frontier.revision());
        taps.on_skip(skip);
        if (skip) {
          ++result.pools_reused;
          continue;
        }
      }
      memo.begin_scope();

      // Scope bookkeeping for the cross-tick verdict: the smallest
      // beyond-horizon arrival proven by any walk, whether the scope
      // committed, and the epochs the LAST pool was built at (a recordable
      // verdict requires that pool to be current — see sweep.hpp).
      Cycles scope_min_arrival = SweepContext::kNoArrival;
      Cycles* min_beyond = reuse_on ? &scope_min_arrival : nullptr;
      bool scope_committed = false;
      std::uint64_t pool_revision = 0;
      std::uint64_t pool_energy_epoch = 0;
      const auto snapshot_pool_epochs = [&] {
        if (reuse_on) {
          pool_revision = frontier.revision();
          pool_energy_epoch = sweep.energy_epoch(machine);
        }
      };

      switch (params.variant) {
        case SlrhVariant::V1: {
          const auto pool = make_pool(machine, clock);
          snapshot_pool_epochs();
          if (pool.empty()) break;
          scope_committed = try_map(pool, machine, clock, 0, min_beyond) != npos;
          break;
        }
        case SlrhVariant::V2: {
          // One pool per (machine, timestep); keep assigning pairs from it in
          // score order until exhausted or nothing starts within the horizon.
          const auto pool = make_pool(machine, clock);
          snapshot_pool_epochs();
          std::size_t next = 0;
          while (next < pool.size()) {
            const std::size_t mapped = try_map(pool, machine, clock, next, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
            next = mapped + 1;
          }
          break;
        }
        case SlrhVariant::V3: {
          // Rebuild and re-score the pool after every assignment; children of
          // the subtask just mapped become admissible immediately.
          for (;;) {
            const auto pool = make_pool(machine, clock);
            snapshot_pool_epochs();
            if (pool.empty()) break;
            const std::size_t mapped = try_map(pool, machine, clock, 0, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
          }
          break;
        }
      }

      // Record the cross-tick verdict only for a scope that ended without a
      // commit AND whose last pool is current (no mid-scope commit after it
      // — else commit-enabled children could be missing from it). Variant 2
      // scopes that mapped anything fail the epoch compare by construction.
      if (reuse_on && !scope_committed &&
          pool_revision == frontier.revision() &&
          pool_energy_epoch == sweep.energy_epoch(machine)) {
        sweep.record_verdict(machine, scope_min_arrival, pool_revision);
      }
    }
    taps.on_tick(schedule, frontier, clock);
  }
}

MappingResult run_slrh(const workload::Scenario& scenario, const SlrhParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;
  Taps taps(scenario, params);
  taps.on_run_begin();

  auto schedule = make_schedule(scenario);
  MappingResult result;
  drive_slrh(scenario, params, *schedule, /*start_clock=*/0,
             /*end_clock=*/scenario.tau + 1, result, &taps);
  finalize_result(result, std::move(schedule), scenario.tau, timer.seconds());
  taps.on_run_end(result);
  return result;
}

}  // namespace ahg::core
