#include "core/slrh.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/sweep.hpp"
#include "support/flight_recorder.hpp"
#include "support/profile.hpp"
#include "support/runtime_profiler.hpp"
#include "support/stopwatch.hpp"
#include "support/task_ledger.hpp"

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

/// Telemetry handles for one drive_slrh window, all nullable. Resolved once
/// per call so the inner loop never touches the registry's name map. With
/// params.sink == nullptr every member stays null and each instrumentation
/// point reduces to a single predictable branch.
struct SlrhTelemetry {
  obs::Sink* sink = nullptr;
  obs::Histogram* pool_build = nullptr;      ///< build_pool wall time
  obs::Histogram* scoring = nullptr;         ///< scoring share of a pool build
  obs::Histogram* placement = nullptr;       ///< map_first_startable wall time
  obs::Histogram* earliest_start = nullptr;  ///< plan_placement share of placement
  obs::Counter* pools = nullptr;
  obs::Counter* maps = nullptr;
  obs::Counter* timesteps = nullptr;
  obs::Counter* reuse_hits = nullptr;    ///< machine scopes skipped via verdicts
  obs::Counter* reuse_misses = nullptr;  ///< scopes that had to build

  bool tracing(obs::EventKind kind) const noexcept {
    return sink != nullptr && sink->wants(kind);
  }

  static SlrhTelemetry resolve(obs::Sink* sink) {
    SlrhTelemetry t;
    t.sink = sink;
    obs::MetricsRegistry* metrics = sink != nullptr ? sink->metrics() : nullptr;
    if (metrics != nullptr) {
      t.pool_build = obs::phase_histogram(metrics, "slrh.pool_build_seconds");
      t.scoring = obs::phase_histogram(metrics, "slrh.scoring_seconds");
      t.placement = obs::phase_histogram(metrics, "slrh.placement_seconds");
      t.earliest_start = obs::phase_histogram(metrics, "slrh.earliest_start_seconds");
      t.pools = &metrics->counter("slrh.pools_built");
      t.maps = &metrics->counter("slrh.map_decisions");
      t.timesteps = &metrics->counter("slrh.timesteps");
      t.reuse_hits = &metrics->counter("slrh.pool_reuse_hits");
      t.reuse_misses = &metrics->counter("slrh.pool_reuse_misses");
    }
    return t;
  }
};

/// Accumulates sub-phase time across many small sections within one scope
/// (per-candidate scoring, per-candidate placement planning) and reports the
/// total as a single histogram observation. Null histogram = no clock reads.
class SubPhaseAccumulator {
 public:
  explicit SubPhaseAccumulator(obs::Histogram* histogram) noexcept
      : histogram_(histogram) {}

  ~SubPhaseAccumulator() {
    if (histogram_ != nullptr && seconds_ > 0.0) histogram_->observe(seconds_);
  }

  template <typename F>
  auto time(F&& fn) {
    if (histogram_ == nullptr) return fn();
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
  }

 private:
  obs::Histogram* histogram_;
  double seconds_ = 0.0;
};

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

/// What a traced map_first_startable call saw: every candidate it examined
/// (with the rejection reason for the passed-over ones) and, when a commit
/// happened, the committed placement with its objective-term breakdown.
struct MapTrace {
  std::vector<obs::CandidateTrace> candidates;
  ObjectiveTerms terms;
  VersionKind version = VersionKind::Secondary;
  Cycles start = 0;
  Cycles finish = 0;
};

/// Walk the ordered pool and commit the first candidate whose exact
/// earliest start (communication included) falls within the horizon.
/// Returns the index into `pool` of the mapped candidate, or npos.
/// Admission energies come from the precomputed tables; `memo` skips
/// re-planning candidates already proven beyond-horizon in this
/// (machine, clock) scope.
/// `committed` receives a copy of the committed plan (the sweep epochs and
/// the task ledger read it).
/// `trace` non-null records the decision (telemetry path only).
/// `min_beyond` non-null accumulates (running min) the arrival of every
/// candidate this walk proved beyond the horizon — the raw material for the
/// cross-tick skip verdicts (core/sweep.hpp). Memo-skipped candidates were
/// accumulated by the earlier walk that inserted them; arrivals only move
/// later within a scope, so those remain valid lower bounds.
std::size_t map_first_startable(const workload::Scenario& scenario,
                                sim::Schedule& schedule, const SlrhParams& params,
                                const ObjectiveTotals& totals,
                                const std::vector<SlrhPoolCandidate>& pool,
                                MachineId machine, Cycles clock,
                                const SlrhTelemetry& telemetry,
                                const ScenarioCache& cache, BeyondHorizonMemo& memo,
                                PlacementPlan& committed,
                                std::size_t skip_before = 0,
                                MapTrace* trace = nullptr,
                                Cycles* min_beyond = nullptr) {
  obs::ProfileScope placement_scope(telemetry.placement);
  SubPhaseAccumulator earliest_time(telemetry.earliest_start);
  const auto fits = [&](TaskId task, VersionKind version) {
    return version_fits_energy(cache, schedule, task, machine, version);
  };
  for (std::size_t k = skip_before; k < pool.size(); ++k) {
    const SlrhPoolCandidate& cand = pool[k];
    if (schedule.is_assigned(cand.task)) {
      if (trace != nullptr) {
        trace->candidates.push_back(
            {cand.task, cand.version, cand.score, "already_assigned"});
      }
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
        if (trace != nullptr) {
          trace->candidates.push_back(
              {cand.task, cand.version, cand.score, "energy_exhausted"});
        }
        continue;
      }
    }
    if (memo.contains(cand.task)) {
      // Proven beyond-horizon earlier in this (machine, clock) scope; the
      // arrival can only have moved later since. Same decision, no re-plan.
      if (trace != nullptr) {
        trace->candidates.push_back(
            {cand.task, cand.version, cand.score, "beyond_horizon"});
      }
      continue;
    }
    const PlacementPlan plan = earliest_time.time([&] {
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
      if (trace != nullptr) {
        // Capture the decision against the PRE-commit schedule state: the
        // breakdown of the hypothetical objective this choice maximised.
        trace->terms = score_candidate_terms(scenario, schedule, params.weights,
                                             totals, cand.task, machine, version,
                                             clock, params.aet_sign);
        trace->version = version;
        trace->start = plan.start;
        trace->finish = plan.finish();
        trace->candidates.push_back({cand.task, version, cand.score, ""});
      }
      commit_placement(scenario, schedule, plan);
      committed = plan;
      return k;
    }
    if (min_beyond != nullptr && plan.arrival < *min_beyond) {
      *min_beyond = plan.arrival;
    }
    memo.insert(cand.task);
    if (trace != nullptr) {
      trace->candidates.push_back(
          {cand.task, cand.version, cand.score, "beyond_horizon"});
    }
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
  SubPhaseAccumulator scoring_time(scoring_histogram);
  if (rejects != nullptr) {
    rejects->unreleased = frontier.num_unreleased();
    rejects->assigned = frontier.num_assigned_released();
    rejects->parents = frontier.num_parents_blocked();
  }
  CandidateBatch local;
  CandidateBatch& batch = scratch != nullptr ? *scratch : local;
  // The scoring histogram covers gather + kernel (the admission compare
  // folded into the gather is noise). Telemetry only.
  std::vector<SlrhPoolCandidate> pool = scoring_time.time([&] {
    const std::size_t rejected_energy = build_candidate_batch(
        cache, scenario, schedule, frontier.ready(), machine, clock,
        params.secondary_only, batch);
    if (rejects != nullptr) rejects->energy = rejected_energy;
    score_batch(batch, params.weights, totals, schedule.t100(), schedule.tec(),
                schedule.aet(), params.aet_sign);
    std::vector<SlrhPoolCandidate> out;
    out.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back({batch.task[i], batch.version[i], batch.score[i]});
    }
    return out;
  });
  sort_pool(pool);
  return pool;
}

void drive_slrh(const workload::Scenario& scenario, const SlrhParams& params,
                sim::Schedule& schedule, Cycles start_clock, Cycles end_clock,
                MappingResult& result) {
  params.validate();
  AHG_EXPECTS_MSG(start_clock >= 0, "start clock must be non-negative");
  const ObjectiveTotals totals = objective_totals(scenario);
  constexpr auto npos = static_cast<std::size_t>(-1);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());

  const SlrhTelemetry telemetry = SlrhTelemetry::resolve(params.sink);
  const bool trace_pools = telemetry.tracing(obs::EventKind::PoolBuilt);
  const bool trace_maps = telemetry.tracing(obs::EventKind::MapDecision);
  const bool trace_stalls = telemetry.tracing(obs::EventKind::Stall);
  obs::FlightRecorder* recorder = params.recorder;
  obs::TaskLedger* ledger = params.ledger;
  const std::string heuristic_name = params.sink != nullptr || recorder != nullptr
                                         ? to_string(params.variant)
                                         : std::string();

  // Flight-recorder per-timestep accumulators (touched only with a recorder
  // attached; the null-recorder path never reads a clock). The overhead
  // budget (≤3% with a recorder ATTACHED, see bench_micro_kernels) shapes
  // this path too: step_t0 is set lazily by the tick's first pool build so
  // an idle tick costs no clock read, `scratch` is reused across ticks so
  // frame assembly is allocation-free after the first, and idle ticks are
  // decimated per Options::idle_stride (active ticks are always sampled).
  double step_t0 = 0.0;
  bool step_timed = false;
  double step_pool_seconds = 0.0;
  std::uint64_t step_pools = 0;
  std::uint64_t step_maps = 0;
  std::uint64_t step_last_pool = 0;
  std::uint64_t idle_ticks_unsampled = 0;
  std::uint64_t span_countdown = 1;  // countdown, not modulo: no div per build
  const std::uint64_t idle_stride =
      recorder != nullptr
          ? std::max<std::uint64_t>(std::uint64_t{1}, recorder->options().idle_stride)
          : std::uint64_t{1};
  const std::uint64_t span_stride =
      recorder != nullptr
          ? std::max<std::uint64_t>(std::uint64_t{1}, recorder->options().span_stride)
          : std::uint64_t{1};
  obs::Frame scratch;

  // Inner-loop machinery (see DESIGN.md "Incremental frontier"): precomputed
  // pure-scenario tables (the caller's shared cache, else a run-local one),
  // the incremental ready frontier, and the beyond-horizon memo.
  std::optional<ScenarioCache> local_cache;
  const ScenarioCache& cache =
      params.cache != nullptr ? *params.cache : local_cache.emplace(scenario);
  ReadyFrontier frontier(scenario, schedule);
  if (ledger != nullptr) frontier.set_ledger(ledger);
  BeyondHorizonMemo memo(scenario.num_tasks());

  // SoA scratch for the batched score kernel, reused across every pool build
  // of the window (allocation-free steady state).
  CandidateBatch batch_scratch;

  // Cross-tick skip verdicts (core/sweep.hpp), keyed on the frontier
  // revision and per-machine energy epochs; a fresh context per drive window
  // means churn segment boundaries invalidate everything cached.
  const bool reuse_on = params.pool_reuse;
  SweepContext sweep(scenario.num_machines());
  std::uint64_t step_reused = 0;

  // One pool for the serial walk, built inline against the current schedule
  // (every commit moves the global t100/tec/aet terms that feed each score),
  // plus its side effects: recorder span, ledger sweep, counters, event.
  const auto make_pool = [&](MachineId machine, Cycles clock) {
    SlrhPoolRejects rejects;
    std::vector<SlrhPoolCandidate> pool;
    const bool time_this_build = recorder != nullptr && --span_countdown == 0;
    const double span_t0 = time_this_build ? recorder->now_seconds() : 0.0;
    {
      obs::ProfileScope scope(telemetry.pool_build);
      SlrhPoolRejects* rej = trace_pools ? &rejects : nullptr;
      pool = build_slrh_pool_batched(scenario, cache, frontier, schedule, params,
                                     totals, machine, clock, rej,
                                     telemetry.scoring, &batch_scratch);
    }
    if (recorder != nullptr) {
      if (time_this_build) {
        span_countdown = span_stride;
        const double elapsed = recorder->now_seconds() - span_t0;
        recorder->add_span("pool_build", span_t0, elapsed, clock, machine);
        if (!step_timed) {
          step_t0 = span_t0;
          step_timed = true;
        }
        step_pool_seconds += elapsed;
      }
      ++step_pools;
      step_last_pool = pool.size();
    }
    if (ledger != nullptr) {
      // First sighting per task is a relaxed load + early-out, so sweeping
      // the whole pool every build stays inside the ≤1.05x overhead budget.
      for (const SlrhPoolCandidate& cand : pool) {
        ledger->on_pooled(cand.task, clock, machine);
      }
    }
    ++result.pools_built;
    if (telemetry.pools != nullptr) telemetry.pools->add();
    if (trace_pools && (!pool.empty() || rejects.any())) {
      obs::Event event;
      event.kind = obs::EventKind::PoolBuilt;
      event.heuristic = heuristic_name;
      event.clock = clock;
      event.machine = machine;
      event.pool_size = pool.size();
      event.rejected_unreleased = rejects.unreleased;
      event.rejected_assigned = rejects.assigned;
      event.rejected_parents = rejects.parents;
      event.rejected_energy = rejects.energy;
      params.sink->emit(event);
    }
    return pool;
  };

  // One map attempt; emits a map event on commit, a stall event otherwise.
  // Every commit is mirrored into the frontier and the sweep epochs
  // immediately.
  const auto try_map = [&](const std::vector<SlrhPoolCandidate>& pool,
                           MachineId machine, Cycles clock,
                           std::size_t skip_before, Cycles* min_beyond) {
    const bool tracing = trace_maps || trace_stalls;
    MapTrace trace;
    PlacementPlan committed;
    const std::size_t mapped =
        map_first_startable(scenario, schedule, params, totals, pool, machine,
                            clock, telemetry, cache, memo, committed,
                            skip_before, tracing ? &trace : nullptr, min_beyond);
    if (mapped != npos) {
      frontier.on_commit(pool[mapped].task);
      sweep.note_commit(committed);
      if (telemetry.maps != nullptr) telemetry.maps->add();
      if (recorder != nullptr) ++step_maps;
      if (ledger != nullptr) record_placement(*ledger, schedule, committed, clock);
    }
    if (tracing && (mapped != npos ? trace_maps : trace_stalls) &&
        !(mapped == npos && pool.size() == skip_before)) {
      obs::Event event;
      event.heuristic = heuristic_name;
      event.clock = clock;
      event.machine = machine;
      event.pool_size = pool.size();
      event.candidates = std::move(trace.candidates);
      if (mapped != npos) {
        event.kind = obs::EventKind::MapDecision;
        event.task = pool[mapped].task;
        event.version = trace.version;
        event.score = trace.terms.value;
        event.terms = {trace.terms.t100, trace.terms.tec, trace.terms.aet,
                       trace.terms.value};
        event.start = trace.start;
        event.finish = trace.finish;
      } else {
        event.kind = obs::EventKind::Stall;
        event.note = "no pool candidate startable within horizon";
      }
      params.sink->emit(event);
    }
    return mapped;
  };

  // End-of-timestep frame assembly (recorder path only). Samples the
  // schedule AFTER the machine sweep so the frame reflects every decision
  // the tick made; nothing here feeds back into the loop.
  const auto record_frame = [&](Cycles clock) {
    obs::Frame& frame = scratch;
    frame.heuristic = heuristic_name;
    frame.clock = clock;
    const double now = recorder->now_seconds();
    frame.wall_seconds = now;
    frame.timestep_seconds = step_timed ? now - step_t0 : 0.0;
    frame.pool_build_seconds = step_pool_seconds;
    const ObjectiveTerms terms = objective_terms(
        params.weights,
        ObjectiveState{schedule.t100(), schedule.tec(), schedule.aet()}, totals,
        params.aet_sign);
    frame.term_t100 = terms.t100;
    frame.term_tec = terms.tec;
    frame.term_aet = terms.aet;
    frame.objective = terms.value;
    frame.assigned = schedule.num_assigned();
    frame.t100 = schedule.t100();
    frame.tec = schedule.tec();
    frame.aet = schedule.aet();
    frame.pools_built = step_pools;
    frame.maps = step_maps;
    frame.last_pool_size = step_last_pool;
    frame.pools_reused = step_reused;
    frame.frontier_ready = frontier.ready().size();
    frame.frontier_unreleased = frontier.num_unreleased();
    const sim::EnergyLedger& energy = schedule.energy();
    frame.battery_fraction.clear();
    frame.busy_until.clear();
    frame.battery_fraction.reserve(static_cast<std::size_t>(num_machines));
    frame.busy_until.reserve(static_cast<std::size_t>(num_machines));
    for (MachineId m = 0; m < num_machines; ++m) {
      const double capacity = energy.capacity(m);
      frame.battery_fraction.push_back(
          capacity > 0.0 ? energy.available(m) / capacity : 0.0);
      frame.busy_until.push_back(schedule.machine_ready(m));
    }
    recorder->record(frame);
  };

  for (Cycles clock = start_clock;
       !schedule.complete() && clock <= scenario.tau && clock < end_clock;
       clock += params.dt) {
    ++result.iterations;
    if (telemetry.timesteps != nullptr) telemetry.timesteps->add();
    if (recorder != nullptr) {
      step_pool_seconds = 0.0;
      step_pools = step_maps = step_last_pool = 0;
      step_reused = 0;
      step_timed = false;
    }
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
        if (sweep.can_skip(machine, clock, params.horizon, frontier.revision())) {
          ++result.pools_reused;
          if (telemetry.reuse_hits != nullptr) telemetry.reuse_hits->add();
          if (recorder != nullptr) ++step_reused;
          continue;
        }
        if (telemetry.reuse_misses != nullptr) telemetry.reuse_misses->add();
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
    if (recorder != nullptr) {
      // A tick that committed a mapping is always sampled; poll-only and
      // fully idle ticks are decimated (see Options::idle_stride).
      if (step_maps > 0 || ++idle_ticks_unsampled >= idle_stride) {
        record_frame(clock);
        idle_ticks_unsampled = 0;
      }
    }
    if (params.heartbeat != nullptr) {
      // Relaxed atomic stores only — the heartbeat thread reads them. Never
      // affects a decision (same null contract as the other handles).
      params.heartbeat->set_clock(
          clock, std::min<Cycles>(scenario.tau, end_clock > 0 ? end_clock - 1
                                                              : scenario.tau));
      params.heartbeat->set_progress(schedule.num_assigned(),
                                     scenario.num_tasks());
    }
  }
}

MappingResult run_slrh(const workload::Scenario& scenario, const SlrhParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;

  if (params.sink != nullptr && params.sink->wants(obs::EventKind::RunBegin)) {
    obs::Event event;
    event.kind = obs::EventKind::RunBegin;
    event.heuristic = to_string(params.variant);
    event.alpha = params.weights.alpha;
    event.beta = params.weights.beta;
    event.gamma = params.weights.gamma;
    event.note = "|T|=" + std::to_string(scenario.num_tasks()) +
                 ", machines=" + std::to_string(scenario.num_machines()) +
                 ", tau=" + std::to_string(scenario.tau);
    params.sink->emit(event);
  }

  auto schedule = make_schedule(scenario);
  MappingResult result;
  const double run_t0 =
      params.recorder != nullptr ? params.recorder->now_seconds() : 0.0;
  drive_slrh(scenario, params, *schedule, /*start_clock=*/0,
             /*end_clock=*/scenario.tau + 1, result);
  if (params.recorder != nullptr) {
    params.recorder->add_span("run:" + to_string(params.variant), run_t0,
                              params.recorder->now_seconds() - run_t0);
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
    event.heuristic = to_string(params.variant);
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
