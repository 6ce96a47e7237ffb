#pragma once
// The observation tap of one driver run. The SLRH, Max-Max and churn drivers
// report what they do through the typed hooks below; taps.cpp turns each
// report into the records of the attached backends — decision events and
// metrics (`sink`), frames and spans (`recorder`), lifecycle transitions
// (`ledger`), live progress (`heartbeat`) — and no other file in core/ knows
// those formats. DESIGN.md §4d maps each hook to its records.
//
// The null-handle contract, stated once for all four: a handle is not owned,
// and null — the default — switches its backend off. With every handle null
// each hook is one branch (on `active_`, or on_skip/on_tick on their own
// flag): no clock read, no allocation, no lock.
// The backends only OBSERVE: schedules are bit-identical under every
// combination of handles (tests/test_determinism.cpp, test_golden_schedules).
// A hook that times a phase (on_pool, on_walk, on_plan, on_recovery) takes
// the phase as a callable and runs it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/maxmax.hpp"
#include "core/placement.hpp"
#include "core/slrh.hpp"
#include "support/flight_recorder.hpp"
#include "support/profile.hpp"

namespace ahg::core {

struct ChurnRunOutcome;
enum class ChurnRecovery : std::uint8_t;

/// Why the SLRH map walk passed over a pool candidate.
enum class Reject : std::uint8_t { AlreadyAssigned, EnergyExhausted, BeyondHorizon };

/// What a driver knew when it chose a placement, besides the plan itself.
struct Decision {
  Cycles clock = 0;           ///< SLRH clock; Max-Max selection round
  std::size_t pool_size = 0;  ///< the pool (Max-Max: frontier) chosen from
  double score = 0.0;         ///< the choice's score in that pool
  Cycles finish_est = 0;      ///< Max-Max: the finish estimate it was scored at
};

class Taps {
 public:
  Taps(const workload::Scenario& scenario, const SlrhParams& params);
  Taps(const workload::Scenario& scenario, const MaxMaxParams& params);

  // --- run. Max-Max passes its initial frontier: the clairvoyant baseline
  // sees every subtask released up front.
  void on_run_begin(std::span<const TaskId> ready = {}) {
    if (active_) run_begin(ready, nullptr);
  }
  void on_run_begin(ChurnRecovery recovery) { if (active_) run_begin({}, &recovery); }
  void on_run_end(const MappingResult& result) { if (active_) run_end(&result, nullptr); }
  /// Max-Max also reports its candidate table's work: entries priced.
  void on_run_end(const MappingResult& result, std::uint64_t entries_priced) {
    if (!active_) return;
    if (entries_priced_ != nullptr) entries_priced_->add(entries_priced);
    run_end(&result, nullptr);
  }
  void on_run_end(const ChurnRunOutcome& outcome) {
    if (active_) run_end(nullptr, &outcome);
  }

  // --- SLRH: a drive_slrh window [start, end_clock) starts; a machine's
  // skip test rules; a pool is built (`build` gets the rejection tally to
  // fill, null when unread, and the scoring histogram) and walked, each
  // candidate rejected, planned or committed; a walk may stall; a tick ends.
  void on_window(Cycles end_clock) {
    if (!active_) return;
    span_countdown_ = 1;
    idle_ticks_unsampled_ = 0;
    clock_limit_ = std::min(scenario_.tau, end_clock > 0 ? end_clock - 1 : scenario_.tau);
  }

  void on_skip(bool skipped) {
    if (!skip_taps_) return;
    obs::Counter* counter = skipped ? reuse_hits_ : reuse_misses_;
    if (counter != nullptr) counter->add();
    if (skipped && recorder_ != nullptr) ++step_reused_;
  }

  template <typename Build>
  SlrhPool on_pool(MachineId machine, Cycles clock, Build&& build) {
    if (!active_) return build(nullptr, nullptr);
    // One build in span_stride is timed: empty polls are ~100 ns on the
    // frontier fast path, and timing each would double its cost.
    const bool timed = recorder_ != nullptr && --span_countdown_ == 0;
    const double t0 = timed ? recorder_->now_seconds() : -1.0;
    SlrhPoolRejects rejects;
    SlrhPool pool = [&] {
      obs::ProfileScope scope(pool_build_);
      SlrhPool built = build(trace_pools_ ? &rejects : nullptr, scoring_);
      // The map walk reports dead slots in pool order only for a listener.
      if (lists_candidates()) rank_dead(built);
      return built;
    }();
    if (pools_ != nullptr) pools_->add();
    if (recorder_ != nullptr || ledger_ != nullptr || trace_pools_) {
      pool_built(pool, rejects, machine, clock, t0);
    }
    return pool;
  }

  template <typename Walk>
  std::size_t on_walk(Walk&& walk) {
    if (!active_) return walk();
    obs::ProfileScope scope(placement_);
    plan_seconds_ = 0.0;
    const std::size_t mapped = walk();
    if (earliest_start_ != nullptr && plan_seconds_ > 0.0) {
      earliest_start_->observe(plan_seconds_);
    }
    return mapped;
  }

  /// True when a map or stall record lists the walk's rejected candidates.
  bool lists_candidates() const noexcept {
    return active_ && (trace_maps_ || trace_stalls_);
  }
  /// True when a hook reads the whole SLRH pool, dead slots included: a
  /// listener, the ledger's pool sightings, the recorder's pool size or the
  /// PoolBuilt record. Otherwise the builder leaves the dead slots out.
  bool reads_pool() const noexcept {
    return lists_candidates() || ledger_ != nullptr || recorder_ != nullptr ||
           trace_pools_;
  }
  void on_candidate(const SlrhPoolCandidate& candidate, Reject reject) {
    if (lists_candidates()) rejected(candidate, reject);
  }

  template <typename Plan>
  PlacementPlan on_plan(Plan&& plan) {
    if (!active_ || earliest_start_ == nullptr) return plan();
    const auto t0 = std::chrono::steady_clock::now();
    PlacementPlan result = plan();
    plan_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
  }

  /// Commit via `commit()`, recording the decision against the prior schedule.
  template <typename Commit>
  void on_commit(const sim::Schedule& schedule, const PlacementPlan& plan,
                 const Decision& decision, Commit&& commit) {
    if (!active_) {
      commit();
      return;
    }
    if (trace_maps_) {
      map_decision(schedule, plan, decision);
    } else {
      walk_.clear();
    }
    commit();
    if (maps_ != nullptr) maps_->add();
    if (recorder_ != nullptr) ++step_maps_;
    if (ledger_ != nullptr) record_placement(schedule, plan, decision.clock);
  }

  void on_stall(Cycles clock, MachineId machine, std::size_t pool_size) {
    if (active_) stall(clock, machine, pool_size);
  }
  void on_tick(const sim::Schedule& schedule, const ReadyFrontier& frontier,
               Cycles clock) {
    if (!tick_taps_) return;
    if (timesteps_ != nullptr) timesteps_->add();
    // A tick that committed a mapping always gets a frame; poll-only and idle
    // ticks are decimated (FlightRecorder::Options::idle_stride).
    const bool frame = recorder_ != nullptr &&
                       (step_maps_ > 0 || ++idle_ticks_unsampled_ >= idle_stride_);
    if (frame || heartbeat_ != nullptr) tick(schedule, frontier, clock, frame);
    if (recorder_ != nullptr) {
      step_pool_seconds_ = 0.0;
      step_pools_ = step_maps_ = step_last_pool_ = step_reused_ = 0;
      step_t0_ = -1.0;
    }
  }

  // --- Max-Max: a round runs `select()` over the frontier, then stalls or
  // commits (above); frontier[first_ready..] became ready as it ends.
  template <typename Select>
  void on_pool(std::span<const TaskId> frontier, Cycles round, Select&& select) {
    if (!active_) {
      select();
      return;
    }
    round_begin(frontier, round);
    obs::ProfileScope scope(pool_build_);
    select();
  }
  void on_stall(const sim::Schedule& schedule) { if (active_) stall(schedule); }
  void on_tick(const sim::Schedule& schedule, Cycles round, MachineId machine,
               std::span<const TaskId> frontier, std::size_t first_ready) {
    if (active_) round_end(schedule, round, machine, frontier, first_ready);
  }

  // --- churn: a machine joins; a batch discovered at `clock` costs `task`
  // its work (orphaned: unfinished on a machine that just left; else
  // invalidated); `machine` leaves (`before`/`after`: the schedules across
  // the batch); on_recovery runs `recover()`, which updates `outcome`.
  void on_join(Cycles clock, MachineId machine) { if (active_) join(clock, machine); }
  void on_orphan(TaskId task, MachineId machine, Cycles clock, bool orphaned,
                 bool degraded) {
    if (active_) orphan(task, machine, clock, orphaned, degraded);
  }
  void on_departure(Cycles clock, MachineId machine, std::size_t orphaned,
                    std::size_t invalidated, double forfeited,
                    const sim::Schedule& before, const sim::Schedule& after) {
    if (active_) departure(clock, machine, orphaned, invalidated, forfeited, before, after);
  }
  template <typename Recover>
  void on_recovery(Cycles clock, const ChurnRunOutcome& outcome, Recover&& recover) {
    if (!active_) {
      recover();
      return;
    }
    const double t0 = recorder_ != nullptr ? recorder_->now_seconds() : 0.0;
    recover();
    recovered(clock, outcome, t0);
  }

 private:
  enum class Driver : std::uint8_t { Slrh, MaxMax };

  Taps(const workload::Scenario& scenario, Driver driver, std::string heuristic,
       const Weights& weights, AetSign aet_sign, obs::Sink* sink,
       obs::FlightRecorder* recorder, obs::TaskLedger* ledger,
       obs::Heartbeat* heartbeat);

  bool wants(obs::EventKind kind) const { return sink_ != nullptr && sink_->wants(kind); }
  ObjectiveTerms terms(const sim::Schedule& s) const {
    return objective_terms(weights_, {s.t100(), s.tec(), s.aet()}, totals_, aet_sign_);
  }
  obs::Event event(obs::EventKind kind, Cycles clock = -1,
                   MachineId machine = kInvalidMachine) const;
  void record_frame(const sim::Schedule& schedule, Cycles clock, double now,
                    std::size_t ready, std::size_t unreleased);
  void run_begin(std::span<const TaskId> ready, const ChurnRecovery* churn);
  void run_end(const MappingResult* result, const ChurnRunOutcome* churn);
  void pool_built(const SlrhPool& pool, const SlrhPoolRejects& rejects,
                  MachineId machine, Cycles clock, double t0);
  void rejected(const SlrhPoolCandidate& candidate, Reject reject);
  void map_decision(const sim::Schedule& schedule, const PlacementPlan& plan,
                    const Decision& decision);
  void record_placement(const sim::Schedule& schedule, const PlacementPlan& plan,
                        Cycles decision_clock);
  void stall(Cycles clock, MachineId machine, std::size_t pool_size);
  void stall(const sim::Schedule& schedule);
  void tick(const sim::Schedule& schedule, const ReadyFrontier& frontier, Cycles clock,
            bool frame);
  void round_begin(std::span<const TaskId> frontier, Cycles round);
  void round_end(const sim::Schedule& schedule, Cycles round, MachineId machine,
                 std::span<const TaskId> frontier, std::size_t first_ready);
  void join(Cycles clock, MachineId machine);
  void orphan(TaskId task, MachineId machine, Cycles clock, bool orphaned, bool degraded);
  void departure(Cycles clock, MachineId machine, std::size_t orphaned,
                 std::size_t invalidated, double forfeited,
                 const sim::Schedule& before, const sim::Schedule& after);
  void recovered(Cycles clock, const ChurnRunOutcome& outcome, double t0);

  const workload::Scenario& scenario_;
  const Driver driver_;
  const std::string heuristic_;
  const Weights weights_;
  const AetSign aet_sign_;
  const ObjectiveTotals totals_;
  obs::Sink* const sink_;
  obs::FlightRecorder* const recorder_;
  obs::TaskLedger* const ledger_;
  obs::Heartbeat* const heartbeat_;
  const bool active_;         ///< any handle attached
  bool trace_pools_ = false;  ///< sink filters of the hot events, read once
  bool trace_maps_ = false;
  bool trace_stalls_ = false;
  // The per-machine and per-tick hooks run tens of thousands of times a run;
  // their own flag keeps them at one branch while a ledger alone is attached.
  bool skip_taps_ = false;  ///< a reuse counter or recorder is attached
  bool tick_taps_ = false;  ///< a timestep counter, recorder or heartbeat

  // Metric handles, resolved once; null without sink->metrics(). Max-Max
  // feeds its selection time and round count through pool_build_ / pools_.
  obs::Histogram* pool_build_ = nullptr;
  obs::Histogram* scoring_ = nullptr;
  obs::Histogram* placement_ = nullptr;
  obs::Histogram* earliest_start_ = nullptr;
  obs::Counter* pools_ = nullptr;
  obs::Counter* maps_ = nullptr;
  obs::Counter* timesteps_ = nullptr;
  obs::Counter* reuse_hits_ = nullptr;
  obs::Counter* reuse_misses_ = nullptr;
  obs::Counter* entries_priced_ = nullptr;  ///< Max-Max only

  // Per-tick accumulators (recorder only; FlightRecorder::Options explains
  // the strides). step_t0_ is set by the tick's first timed pool build, so an
  // idle tick reads no clock; frame_ is reused, so assembly is allocation-free.
  std::uint64_t idle_stride_ = 1;
  double step_t0_ = -1.0;  ///< < 0: no timed pool build yet this tick
  double step_pool_seconds_ = 0.0;
  std::uint64_t step_pools_ = 0;
  std::uint64_t step_maps_ = 0;
  std::uint64_t step_last_pool_ = 0;
  std::uint64_t step_reused_ = 0;
  std::uint64_t idle_ticks_unsampled_ = 0;
  std::uint64_t span_countdown_ = 1;  // countdown, not modulo: no div per build
  obs::Frame frame_;

  double run_t0_ = 0.0;
  double plan_seconds_ = 0.0;  ///< plan_placement time in the current walk
  Cycles clock_limit_ = 0;     ///< the window's heartbeat clock limit
  std::vector<obs::CandidateTrace> walk_;  ///< the current walk's candidates
};

}  // namespace ahg::core
