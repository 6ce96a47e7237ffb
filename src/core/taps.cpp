#include "core/taps.hpp"

#include <utility>

#include "core/churn.hpp"
#include "core/frontier.hpp"
#include "core/scoring.hpp"
#include "support/runtime_profiler.hpp"
#include "support/task_ledger.hpp"

namespace ahg::core {

/// CandidateTrace::reject for each Reject, in enum order.
constexpr const char* kRejectNames[] = {"already_assigned", "energy_exhausted",
                                        "beyond_horizon"};

Taps::Taps(const workload::Scenario& scenario, const SlrhParams& params)
    : Taps(scenario, Driver::Slrh, to_string(params.variant), params.weights,
           params.aet_sign, params.sink, params.recorder, params.ledger,
           params.heartbeat) {}

Taps::Taps(const workload::Scenario& scenario, const MaxMaxParams& params)
    : Taps(scenario, Driver::MaxMax, "Max-Max", params.weights, params.aet_sign,
           params.sink, params.recorder, params.ledger, nullptr) {}

Taps::Taps(const workload::Scenario& scenario, Driver driver, std::string heuristic,
           const Weights& weights, AetSign aet_sign, obs::Sink* sink,
           obs::FlightRecorder* recorder, obs::TaskLedger* ledger,
           obs::Heartbeat* heartbeat)
    : scenario_(scenario),
      driver_(driver),
      heuristic_(std::move(heuristic)),
      weights_(weights),
      aet_sign_(aet_sign),
      totals_(objective_totals(scenario)),
      sink_(sink),
      recorder_(recorder),
      ledger_(ledger),
      heartbeat_(heartbeat),
      active_(sink != nullptr || recorder != nullptr || ledger != nullptr ||
              heartbeat != nullptr) {
  trace_pools_ = wants(obs::EventKind::PoolBuilt);
  trace_maps_ = wants(obs::EventKind::MapDecision);
  trace_stalls_ = wants(obs::EventKind::Stall);
  obs::MetricsRegistry* metrics = sink_ != nullptr ? sink_->metrics() : nullptr;
  skip_taps_ = recorder_ != nullptr || metrics != nullptr;
  tick_taps_ = skip_taps_ || heartbeat_ != nullptr;
  if (recorder_ != nullptr) {
    idle_stride_ = std::max<std::uint64_t>(1, recorder_->options().idle_stride);
  }
  if (metrics == nullptr) return;
  if (driver_ == Driver::MaxMax) {
    pool_build_ = obs::phase_histogram(metrics, "maxmax.select_seconds");
    pools_ = &metrics->counter("maxmax.rounds");
    maps_ = &metrics->counter("maxmax.map_decisions");
    entries_priced_ = &metrics->counter("maxmax.entries_priced");
    return;
  }
  pool_build_ = obs::phase_histogram(metrics, "slrh.pool_build_seconds");
  scoring_ = obs::phase_histogram(metrics, "slrh.scoring_seconds");
  placement_ = obs::phase_histogram(metrics, "slrh.placement_seconds");
  earliest_start_ = obs::phase_histogram(metrics, "slrh.earliest_start_seconds");
  pools_ = &metrics->counter("slrh.pools_built");
  maps_ = &metrics->counter("slrh.map_decisions");
  timesteps_ = &metrics->counter("slrh.timesteps");
  reuse_hits_ = &metrics->counter("slrh.pool_reuse_hits");
  reuse_misses_ = &metrics->counter("slrh.pool_reuse_misses");
}

/// An event of `kind` from this run (the weights are written for run events).
obs::Event Taps::event(obs::EventKind kind, Cycles clock, MachineId machine) const {
  obs::Event e;
  e.kind = kind;
  e.heuristic = heuristic_;
  e.clock = clock;
  e.machine = machine;
  e.alpha = weights_.alpha;
  e.beta = weights_.beta;
  e.gamma = weights_.gamma;
  return e;
}

void Taps::run_begin(std::span<const TaskId> ready, const ChurnRecovery* churn) {
  if (wants(obs::EventKind::RunBegin)) {
    obs::Event e = event(obs::EventKind::RunBegin);
    e.note = churn != nullptr
                 ? "churn=" + std::string(to_string(*churn)) + ", windows=" +
                       std::to_string(scenario_.machine_windows.size())
                 : "|T|=" + std::to_string(scenario_.num_tasks()) +
                       ", machines=" + std::to_string(scenario_.num_machines()) +
                       ", tau=" + std::to_string(scenario_.tau);
    sink_->emit(e);
  }
  if (ledger_ != nullptr && driver_ == Driver::MaxMax) {
    // Transition clocks carry the round; releases the real release times.
    const auto num_tasks = static_cast<TaskId>(scenario_.num_tasks());
    for (TaskId t = 0; t < num_tasks; ++t) ledger_->on_released(t, scenario_.release(t));
    for (const TaskId t : ready) ledger_->on_frontier_ready(t, 0);
  }
  run_t0_ = recorder_ != nullptr ? recorder_->now_seconds() : 0.0;
}

void Taps::run_end(const MappingResult* result, const ChurnRunOutcome* churn) {
  if (recorder_ != nullptr && churn == nullptr) {
    recorder_->add_span("run:" + heuristic_, run_t0_, recorder_->now_seconds() - run_t0_);
  }
  if (!wants(obs::EventKind::RunEnd)) return;
  const MappingResult& r = churn != nullptr ? churn->result : *result;
  obs::Event e = event(obs::EventKind::RunEnd);
  e.t100 = r.t100;
  e.assigned = r.assigned;
  e.aet = r.aet;
  e.feasible = r.feasible();
  e.wall_seconds = r.wall_seconds;
  if (churn != nullptr) e.note = "departures=" + std::to_string(churn->departures_processed);
  sink_->emit(e);
}

void Taps::pool_built(const SlrhPool& pool,
                      const SlrhPoolRejects& rejects, MachineId machine, Cycles clock,
                      double t0) {
  if (recorder_ != nullptr) {
    if (t0 >= 0.0) {  // a timed build
      span_countdown_ = std::max<std::uint64_t>(1, recorder_->options().span_stride);
      const double elapsed = recorder_->now_seconds() - t0;
      recorder_->add_span("pool_build", t0, elapsed, clock, machine);
      if (step_t0_ < 0.0) step_t0_ = t0;
      step_pool_seconds_ += elapsed;
    }
    ++step_pools_;
    step_last_pool_ = pool.size();
  }
  if (ledger_ != nullptr) {
    // First sighting per task is a relaxed load + early-out, so sweeping
    // the whole pool every build stays inside the ≤1.05x overhead budget.
    for (const SlrhPoolCandidate& cand : pool.slots) {
      ledger_->on_pooled(cand.task, clock);
    }
  }
  if (trace_pools_ && (!pool.empty() || rejects.any())) {
    obs::Event e = event(obs::EventKind::PoolBuilt, clock, machine);
    e.pool_size = pool.size();
    e.rejected_unreleased = rejects.unreleased;
    e.rejected_assigned = rejects.assigned;
    e.rejected_parents = rejects.parents;
    e.rejected_energy = rejects.energy;
    sink_->emit(e);
  }
}

void Taps::rejected(const SlrhPoolCandidate& candidate, Reject reject) {
  walk_.push_back({candidate.task, candidate.version, candidate.score,
                   kRejectNames[static_cast<std::size_t>(reject)]});
}

void Taps::map_decision(const sim::Schedule& schedule, const PlacementPlan& plan,
                        const Decision& decision) {
  // The breakdown of the hypothetical objective the choice maximised,
  // against the PRE-commit schedule: SLRH scores at its clock, Max-Max at
  // the finish estimate its selection used.
  const bool maxmax = driver_ == Driver::MaxMax;
  const ObjectiveTerms t =
      maxmax ? score_candidate_terms_with_finish(
                   scenario_, schedule, weights_, totals_, plan.task, plan.machine,
                   plan.version, decision.finish_est, aet_sign_)
             : score_candidate_terms(scenario_, schedule, weights_, totals_,
                                     plan.task, plan.machine, plan.version,
                                     decision.clock, aet_sign_);
  obs::Event e = event(obs::EventKind::MapDecision, decision.clock, plan.machine);
  e.task = plan.task;
  e.version = plan.version;
  e.score = maxmax ? decision.score : t.value;
  e.terms = {t.t100, t.tec, t.aet, t.value};
  e.start = plan.start;
  e.finish = plan.finish();
  e.pool_size = decision.pool_size;
  if (!maxmax) {
    walk_.push_back({plan.task, plan.version, decision.score, ""});
    e.candidates = std::move(walk_);
    walk_.clear();
  }
  sink_->emit(e);
}

/// Record a just-committed plan (against the post-commit schedule) into the
/// ledger, with one input edge per parent: timed cross-machine transfers and
/// instantaneous same-machine handoffs at the parent's finish.
void Taps::record_placement(const sim::Schedule& schedule, const PlacementPlan& plan,
                            Cycles decision_clock) {
  const std::int8_t version = plan.version == VersionKind::Primary ? 0 : 1;
  obs::TaskPlacementSample sample{plan.task,     plan.machine,  version,
                                  decision_clock, plan.start,    plan.finish(), {}};
  sample.inputs.reserve(plan.comms.size() + plan.released_parents.size());
  for (const CommPlan& comm : plan.comms) {
    sample.inputs.push_back(
        {comm.parent, comm.from_machine, comm.start, comm.start + comm.duration});
  }
  for (const TaskId parent : plan.released_parents) {
    const Cycles handoff = schedule.assignment(parent).finish;
    sample.inputs.push_back({parent, plan.machine, handoff, handoff});
  }
  ledger_->on_placement(std::move(sample));
}

void Taps::stall(Cycles clock, MachineId machine, std::size_t pool_size) {
  if (trace_stalls_) {
    obs::Event e = event(obs::EventKind::Stall, clock, machine);
    e.pool_size = pool_size;
    e.candidates = std::move(walk_);
    e.note = "no pool candidate startable within horizon";
    sink_->emit(e);
  }
  walk_.clear();
}

void Taps::record_frame(const sim::Schedule& schedule, Cycles clock, double now,
                        std::size_t ready, std::size_t unreleased) {
  // Sampled AFTER the tick's decisions, so the frame reflects all of them;
  // nothing here feeds back into the loop.
  obs::Frame& f = frame_;
  f.heuristic = heuristic_;
  f.clock = clock;
  f.wall_seconds = now;
  f.timestep_seconds = step_t0_ >= 0.0 ? now - step_t0_ : 0.0;
  f.pool_build_seconds = step_pool_seconds_;
  const ObjectiveTerms t = terms(schedule);
  f.term_t100 = t.t100;
  f.term_tec = t.tec;
  f.term_aet = t.aet;
  f.objective = t.value;
  f.assigned = schedule.num_assigned();
  f.t100 = schedule.t100();
  f.tec = schedule.tec();
  f.aet = schedule.aet();
  f.pools_built = step_pools_;
  f.maps = step_maps_;
  f.last_pool_size = step_last_pool_;
  f.pools_reused = step_reused_;
  f.frontier_ready = ready;
  f.frontier_unreleased = unreleased;
  const sim::EnergyLedger& energy = schedule.energy();
  const auto num_machines = static_cast<MachineId>(scenario_.num_machines());
  f.battery_fraction.clear();
  f.busy_until.clear();
  for (MachineId m = 0; m < num_machines; ++m) {
    const double capacity = energy.capacity(m);
    f.battery_fraction.push_back(capacity > 0.0 ? energy.available(m) / capacity : 0.0);
    f.busy_until.push_back(schedule.machine_ready(m));
  }
  recorder_->record(f);
}

void Taps::tick(const sim::Schedule& schedule, const ReadyFrontier& frontier,
                Cycles clock, bool frame) {
  if (frame) {
    record_frame(schedule, clock, recorder_->now_seconds(), frontier.num_ready(),
                 frontier.num_unreleased());
    idle_ticks_unsampled_ = 0;
  }
  if (heartbeat_ != nullptr) {
    // Relaxed atomic stores only — the heartbeat thread reads them.
    heartbeat_->set_clock(clock, clock_limit_);
    heartbeat_->set_progress(schedule.num_assigned(), scenario_.num_tasks());
  }
}

void Taps::round_begin(std::span<const TaskId> frontier, Cycles round) {
  if (pools_ != nullptr) pools_->add();
  if (recorder_ != nullptr) {
    step_t0_ = recorder_->now_seconds();
    step_pools_ = 1;
    step_last_pool_ = frontier.size();
  }
  if (ledger_ != nullptr) {
    // The whole frontier IS the candidate pool each round; first sighting
    // only.
    for (const TaskId t : frontier) ledger_->on_pooled(t, round);
  }
}

void Taps::stall(const sim::Schedule& schedule) {
  if (!wants(obs::EventKind::Stall)) return;
  obs::Event e = event(obs::EventKind::Stall);
  e.note = std::to_string(scenario_.num_tasks() -
                          static_cast<std::size_t>(schedule.num_assigned())) +
           " subtasks unmapped, no feasible pair remains";
  sink_->emit(e);
}

void Taps::round_end(const sim::Schedule& schedule, Cycles round, MachineId machine,
                     std::span<const TaskId> frontier, std::size_t first_ready) {
  if (ledger_ != nullptr) {
    for (const TaskId t : frontier.subspan(first_ready)) ledger_->on_frontier_ready(t, round);
  }
  if (recorder_ == nullptr) return;
  // One frame per round; frame.clock carries the round index (matching the
  // event stream), and the round IS the selection.
  const double now = recorder_->now_seconds();
  recorder_->add_span("select", step_t0_, now - step_t0_, round, machine);
  step_pool_seconds_ = now - step_t0_;
  record_frame(schedule, round, now, frontier.size(), 0);
  step_maps_ = 0;
}

void Taps::join(Cycles clock, MachineId machine) {
  if (!wants(obs::EventKind::MachineJoin)) return;
  sink_->emit(event(obs::EventKind::MachineJoin, clock, machine));
}

void Taps::orphan(TaskId task, MachineId machine, Cycles clock, bool orphaned,
                  bool degraded) {
  if (ledger_ != nullptr) {
    if (orphaned) {
      ledger_->on_orphaned(task);
    } else {
      ledger_->on_invalidated(task);
    }
    if (degraded) ledger_->on_degraded(task);
  }
  if (orphaned && wants(obs::EventKind::OrphanReturn)) {
    obs::Event e = event(obs::EventKind::OrphanReturn, clock, machine);
    e.task = task;
    sink_->emit(e);
  }
}

void Taps::departure(Cycles clock, MachineId machine, std::size_t orphaned,
                     std::size_t invalidated, double forfeited,
                     const sim::Schedule& before, const sim::Schedule& after) {
  if (!wants(obs::EventKind::MachineDeparture)) return;
  const ObjectiveTerms b = terms(before);
  const ObjectiveTerms a = terms(after);
  obs::Event e = event(obs::EventKind::MachineDeparture, clock, machine);
  e.orphaned = orphaned;
  e.invalidated = invalidated;
  e.energy_forfeited = forfeited;
  e.terms = {a.t100 - b.t100, a.tec - b.tec, a.aet - b.aet, a.value - b.value};
  sink_->emit(e);
}

void Taps::recovered(Cycles clock, const ChurnRunOutcome& outcome, double t0) {
  if (recorder_ == nullptr) return;
  // Every frame sampled from here on carries the updated cumulative churn
  // tallies (frame_ keeps them across ticks); the recovery itself is a span.
  recorder_->add_span("churn_recovery", t0, recorder_->now_seconds() - t0, clock);
  frame_.departures = outcome.departures_processed;
  frame_.orphaned = outcome.orphaned;
  frame_.invalidated = outcome.invalidated;
  frame_.energy_forfeited = outcome.energy_forfeited;
}

}  // namespace ahg::core
