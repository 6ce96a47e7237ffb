#include "core/slrh.hpp"

#include <algorithm>
#include <optional>
#include <span>
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

void rank_dead(SlrhPool& pool) {
  std::sort(pool.slots.begin() + static_cast<std::ptrdiff_t>(pool.live),
            pool.slots.end(), ranks_before);
}

std::size_t map_first_startable(const workload::Scenario& scenario,
                                sim::Schedule& schedule, const SlrhParams& params,
                                const SlrhPool& pool, MachineId machine,
                                Cycles clock, const ScenarioCache& cache,
                                BeyondHorizonMemo& memo, Taps& taps,
                                std::size_t skip_before, Cycles* min_beyond) {
  // Re-check energy: earlier commits in this timestep (variants 2/3) may
  // have consumed what the pool admission saw. The walk plans the pooled
  // version, else secondary when only that still fits; nullopt: neither.
  const auto fitting_version = [&](const SlrhPoolCandidate& cand) {
    const auto fits = [&](VersionKind version) {
      return version_fits_energy(cache, schedule, cand.task, machine, version);
    };
    std::optional<VersionKind> version;
    if (fits(cand.version)) {
      version = cand.version;
    } else if (cand.version == VersionKind::Primary && fits(VersionKind::Secondary)) {
      version = VersionKind::Secondary;
    }
    return version;
  };

  // Dead slots are never walked. For a tap that lists rejections they are
  // reported where the full walk would have met them: each one ranked
  // before the live candidate about to be visited, with the first check
  // that would have rejected it (the arrival bound, unless it was assigned
  // or its energy ran out first).
  const std::span<const SlrhPoolCandidate> dead = pool.dead();
  std::size_t next_dead = dead.size();
  if (taps.lists_candidates()) {
    next_dead = skip_before == 0
                    ? 0
                    : static_cast<std::size_t>(
                          std::partition_point(
                              dead.begin(), dead.end(),
                              [&](const SlrhPoolCandidate& d) {
                                return ranks_before(d, pool.slots[skip_before - 1]);
                              }) -
                          dead.begin());
  }
  const auto report_dead_before = [&](const SlrhPoolCandidate* bound) {
    for (; next_dead < dead.size() &&
           (bound == nullptr || ranks_before(dead[next_dead], *bound));
         ++next_dead) {
      const SlrhPoolCandidate& cand = dead[next_dead];
      Reject reject = Reject::BeyondHorizon;
      if (schedule.is_assigned(cand.task)) {
        reject = Reject::AlreadyAssigned;
      } else if (!fitting_version(cand)) {
        reject = Reject::EnergyExhausted;
      }
      taps.on_candidate(cand, reject);
    }
  };

  for (std::size_t k = skip_before; k < pool.live; ++k) {
    const SlrhPoolCandidate& cand = pool.slots[k];
    report_dead_before(&cand);
    if (schedule.is_assigned(cand.task)) {
      taps.on_candidate(cand, Reject::AlreadyAssigned);
      continue;
    }
    const std::optional<VersionKind> version = fitting_version(cand);
    if (!version) {
      taps.on_candidate(cand, Reject::EnergyExhausted);
      continue;
    }
    if (memo.contains(cand.task)) {
      // Proven beyond-horizon earlier in this (machine, clock) scope; the
      // arrival can only have moved later since. Same decision, no re-plan.
      taps.on_candidate(cand, Reject::BeyondHorizon);
      continue;
    }
    const PlacementPlan plan = taps.on_plan([&] {
      return plan_placement(scenario, schedule, cand.task, machine, *version, clock);
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
      return k;
    }
    memo.insert(cand.task);
    if (min_beyond != nullptr && plan.arrival < *min_beyond) *min_beyond = plan.arrival;
    taps.on_candidate(cand, Reject::BeyondHorizon);
  }
  report_dead_before(nullptr);
  if (min_beyond != nullptr && pool.dead_min_arrival < *min_beyond) {
    *min_beyond = pool.dead_min_arrival;
  }
  return static_cast<std::size_t>(-1);
}

SlrhPool build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, GatherRows& rows, CandidateBatch& batch, SlrhPoolRejects* rejects,
    obs::Histogram* scoring_histogram, bool with_dead) {
  AHG_EXPECTS_MSG(rejects == nullptr || with_dead,
                  "the energy tally needs the dead slots gathered");
  if (rejects != nullptr) {
    rejects->unreleased = frontier.num_unreleased();
    rejects->assigned = frontier.num_assigned_released();
    rejects->parents = frontier.num_parents_blocked();
  }
  SlrhPool pool;
  {
    // The scoring histogram covers the fused gather (the admission compare
    // folded into it is noise). Telemetry only.
    obs::ProfileScope scoring(scoring_histogram);
    batch.start(schedule, machine, clock, params.weights, totals, params.aet_sign);
    const std::span<const TaskId> live =
        rows.activate(cache, scenario, schedule, frontier.joined(), machine, clock,
                      params.horizon, batch.headroom);
    std::size_t rejected_energy = gather_candidates(cache, scenario, schedule, live,
                                                    params.secondary_only, rows, batch);
    pool.live = batch.size();
    pool.dead_min_arrival =
        rows.dead_min_arrival(cache, machine, clock, batch.headroom);
    // Dead slots follow the live ones through the same gather.
    if (with_dead) {
      rejected_energy += gather_candidates(cache, scenario, schedule,
                                           rows.dead(machine),
                                           params.secondary_only, rows, batch);
    }
    if (rejects != nullptr) rejects->energy = rejected_energy;
    pool.slots = std::span<SlrhPoolCandidate>(batch.slots.data(), batch.size());
  }
  std::sort(pool.slots.begin(),
            pool.slots.begin() + static_cast<std::ptrdiff_t>(pool.live), ranks_before);
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

  // Parent terms per ready task (filled once, dropped on commit) with the
  // per-machine horizon-activation index, and the pool builds' scratch (the
  // pool's slots), reused across every pool build of the window
  // (allocation-free steady state).
  GatherRows rows(scenario.num_tasks(), scenario.num_machines());
  CandidateBatch batch_scratch;

  // Cross-tick skip verdicts (core/sweep.hpp), keyed on the frontier
  // revision; a fresh context per drive window means churn segment
  // boundaries invalidate everything cached.
  const bool reuse_on = params.pool_reuse;
  SweepContext sweep(scenario.num_machines());

  // One pool for the serial walk, built inline against the current schedule
  // (every commit moves the global t100/tec/aet terms that feed each score).
  // The dead slots are gathered only for an observer that reads the whole
  // pool (Taps::reads_pool). Without them V2's continues_after asks only
  // whether a live slot follows: a further walk visits live slots alone, so
  // a dead slot after the commit could not change the scope.
  const bool with_dead = taps.reads_pool();
  const auto make_pool = [&](MachineId machine, Cycles clock) {
    ++result.pools_built;
    return taps.on_pool(machine, clock, [&](SlrhPoolRejects* rejects,
                                            obs::Histogram* scoring) {
      return build_slrh_pool_batched(scenario, cache, frontier, schedule, params,
                                     totals, machine, clock, rows, batch_scratch,
                                     rejects, scoring, with_dead);
    });
  };

  // One map attempt over pool[skip_before..] (never empty: V1/V3 skip an
  // empty pool, V2 stops at its end). Every commit is mirrored into the
  // frontier immediately, which moves the revision the skip verdicts are
  // keyed on; a walk that commits nothing is a stall.
  const auto try_map = [&](const SlrhPool& pool,
                           MachineId machine, Cycles clock,
                           std::size_t skip_before, Cycles* min_beyond) {
    const std::size_t mapped = taps.on_walk([&] {
      return map_first_startable(scenario, schedule, params, pool, machine, clock,
                                 cache, memo, taps, skip_before, min_beyond);
    });
    if (mapped != npos) {
      frontier.on_commit(pool.slots[mapped].task);
      rows.drop(pool.slots[mapped].task);
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
      // beyond-horizon arrival proven by any walk, and whether the scope
      // committed.
      Cycles scope_min_arrival = SweepContext::kNoArrival;
      Cycles* min_beyond = reuse_on ? &scope_min_arrival : nullptr;
      bool scope_committed = false;

      switch (params.variant) {
        case SlrhVariant::V1: {
          const auto pool = make_pool(machine, clock);
          if (pool.empty()) break;
          scope_committed = try_map(pool, machine, clock, 0, min_beyond) != npos;
          break;
        }
        case SlrhVariant::V2: {
          // One pool per (machine, timestep); keep assigning pairs from it in
          // score order until exhausted or nothing starts within the horizon.
          const auto pool = make_pool(machine, clock);
          if (pool.empty()) break;
          for (std::size_t next = 0;;) {
            const std::size_t mapped = try_map(pool, machine, clock, next, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
            if (!pool.continues_after(mapped)) break;
            next = mapped + 1;
          }
          break;
        }
        case SlrhVariant::V3: {
          // Rebuild and re-score the pool after every assignment; children of
          // the subtask just mapped become admissible immediately.
          for (;;) {
            const auto pool = make_pool(machine, clock);
            if (pool.empty()) break;
            const std::size_t mapped = try_map(pool, machine, clock, 0, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
          }
          break;
        }
      }

      // Record the cross-tick verdict only for a scope that ended without a
      // commit: it built exactly one pool, at the current revision, and
      // nothing moved after it. After a commit, commit-enabled children
      // could be missing from the last pool walked.
      if (reuse_on && !scope_committed) {
        sweep.record_verdict(machine, scope_min_arrival, frontier.revision());
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
