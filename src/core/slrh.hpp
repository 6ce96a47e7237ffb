#pragma once
// The Simplified Lagrangian Receding Horizon (SLRH) resource manager
// (paper §IV, Figure 1) and its three variants (paper §V).
//
// SLRH is a clock-driven dynamic heuristic: at each timestep of dT cycles it
// sweeps the machines in numerical order; for each machine that is available
// (its last scheduled computation has finished), it builds a pool U of
// candidate subtasks (parents mapped, secondary version energy-feasible on
// that machine under the worst-case communication rule), picks the version
// of each candidate that maximises the global objective, orders the pool by
// objective value, and maps the first candidate whose exact earliest start
// falls within the receding horizon H of the current clock. "Simplified"
// means the Lagrangian weights (alpha, beta, gamma) are constants for the
// whole run.
//
// Variant 1 maps at most one subtask per machine per timestep. Variant 2
// keeps assigning pairs from the SAME pool (no re-evaluation) until the pool
// is exhausted or nothing more starts within the horizon. Variant 3 rebuilds
// and re-scores the pool after every assignment (newly enabled children join
// immediately) and keeps filling the same machine.
//
// The machine walk is single-threaded and builds each pool inline: every
// commit moves the global t100/tec/aet terms that every score reads, so a
// pool built ahead of an earlier machine's turn is usually stale by the time
// its own turn comes (DESIGN.md §4h). The one sweep accelerator is the
// cross-tick skip verdict (SlrhParams::pool_reuse, core/sweep.hpp).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "core/result.hpp"
#include "core/scoring.hpp"
#include "support/event_log.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class FlightRecorder;
class Heartbeat;
class TaskLedger;
}  // namespace ahg::obs

namespace ahg::core {

class ScenarioCache;
class ReadyFrontier;
class Taps;

enum class SlrhVariant : std::uint8_t { V1 = 1, V2 = 2, V3 = 3 };

std::string to_string(SlrhVariant variant);

struct SlrhParams {
  SlrhVariant variant = SlrhVariant::V1;
  Weights weights = Weights::make(0.5, 0.1);
  Cycles dt = 10;       ///< timestep in clock cycles (paper: 10)
  Cycles horizon = 100; ///< receding horizon H in clock cycles (paper: 100)
  AetSign aet_sign = AetSign::Reward;

  // Observation handles, optional and not owned (contract: core/taps.hpp).
  obs::Sink* sink = nullptr;  ///< decision events; phase metrics via metrics()
  obs::FlightRecorder* recorder = nullptr;  ///< per-tick frames, pool-build spans
  obs::TaskLedger* ledger = nullptr;        ///< per-subtask lifecycle transitions
  obs::Heartbeat* heartbeat = nullptr;      ///< live clock and progress

  /// Optional precomputed pure-scenario tables (not owned). Null — the
  /// default — makes the driver build its own once per run; supply one to
  /// amortise the build across many runs on the same scenario (the tuner's
  /// solver does, sharing it read-only across its worker threads).
  const ScenarioCache* cache = nullptr;

  /// Cross-tick pool reuse (core/sweep.hpp): when a (machine, timestep)
  /// scope ends without a commit, remember the smallest proven lower bound
  /// on a beyond-horizon arrival (exact when the candidate was planned),
  /// tagged with the frontier revision; while no commit or ready-set join
  /// has moved it, a later tick whose clock + H stays below that bound
  /// skips the machine's pool build outright — the serial sweep would
  /// provably commit nothing there. Schedules are
  /// bit-identical either way (asserted by tests/test_determinism.cpp); only
  /// pool-build counts and their telemetry differ (MappingResult::
  /// pools_reused tallies the skipped scopes). It still pays with the cheap
  /// rebuilds of DESIGN.md §4k (SLRH-3 1.9x at the smoke tier), so it stays.
  bool pool_reuse = true;

  /// Optional per-task degrade mask (not owned; indexed by TaskId). A task
  /// whose entry is non-zero is only ever offered at its secondary version —
  /// the churn driver's "degrade" recovery policy marks re-mapped orphans so
  /// they finish cheaply instead of competing for primary slots. Null — the
  /// default — changes nothing (bit-identical schedules).
  const std::vector<std::uint8_t>* secondary_only = nullptr;

  void validate() const {
    weights.validate();
    AHG_EXPECTS_MSG(dt >= 1, "dT must be at least one cycle");
    AHG_EXPECTS_MSG(horizon >= 0, "horizon must be non-negative");
  }
};

/// Run SLRH to completion (all subtasks mapped) or until the clock passes
/// tau with work remaining. Deterministic. The returned result owns the
/// final schedule.
MappingResult run_slrh(const workload::Scenario& scenario, const SlrhParams& params);

/// Low-level driver: advance an EXISTING schedule with the SLRH loop from
/// start_clock until completion, the scenario's tau (inclusive), or
/// end_clock (EXCLUSIVE) — whichever comes first. Used by run_slrh (fresh schedule, full window) and by the
/// dynamic machine-loss extension (replayed schedule, resuming at the loss
/// time). Updates stats.iterations / stats.pools_built in place. `taps` is
/// the caller's run-wide tap (the churn driver shares one across windows);
/// null makes one from `params` for this window.
void drive_slrh(const workload::Scenario& scenario, const SlrhParams& params,
                sim::Schedule& schedule, Cycles start_clock, Cycles end_clock,
                MappingResult& stats, Taps* taps = nullptr);

// --- pool construction (exposed for micro-benchmarks and invariant tests) --

/// The pool U of one (machine, clock) scope, split by the arrival bound. A
/// slot with arrival_lb > clock + H is dead: the map walk would reject it
/// without planning, and its parents stay put for the whole scope, so it
/// stays dead through every re-walk and rebuild in the scope. Only the live
/// prefix is ranked and walked. The dead slots are there only when the
/// build materialised them (an observer reads the whole pool — its size,
/// the ledger's sightings, the stall and map records); without them `slots`
/// holds the live prefix alone, and only `dead_min_arrival` and empty()
/// speak for the dead slots.
///
/// The slots live in the builder's CandidateBatch: a pool is valid until
/// the next build with the same batch.
struct SlrhPool {
  static constexpr Cycles kNoDead = std::numeric_limits<Cycles>::max();

  /// [0, live): live slots in pool order; [live, size()): the materialised
  /// dead slots, in pool order only after rank_dead().
  std::span<SlrhPoolCandidate> slots;
  std::size_t live = 0;
  /// Smallest arrival_lb over the dead slots (kNoDead when there are none),
  /// materialised or not.
  Cycles dead_min_arrival = kNoDead;

  std::size_t size() const noexcept { return slots.size(); }
  /// No live slot and no dead one: nothing passed the energy admission.
  bool empty() const noexcept { return live == 0 && dead_min_arrival == kNoDead; }
  std::span<const SlrhPoolCandidate> dead() const noexcept { return slots.subspan(live); }
  /// Whether any slot ranks after live slot `k`: a walk over the whole pool
  /// in order would go on past it. Without the dead slots materialised it
  /// answers for the live slots alone, which is all a further walk visits.
  bool continues_after(std::size_t k) const noexcept {
    if (k + 1 < live) return true;
    const std::span<const SlrhPoolCandidate> tail = dead();
    return std::any_of(tail.begin(), tail.end(), [&](const SlrhPoolCandidate& d) {
      return ranks_before(slots[k], d);
    });
  }
};

/// Put the dead tail in pool order. Only an observer that lists the walk's
/// rejections needs it (the map walk then reports the dead slots in the
/// order the full walk would have met them).
void rank_dead(SlrhPool& pool);

/// Pool-admission rejection tally for one pool build (telemetry only).
struct SlrhPoolRejects {
  std::size_t unreleased = 0;
  std::size_t assigned = 0;
  std::size_t parents = 0;
  std::size_t energy = 0;

  bool any() const noexcept { return unreleased + assigned + parents + energy > 0; }
};

/// The SLRH pool builder. `rows`' activation index (one per machine, fed
/// from the frontier's joined() log) names the live ready tasks — those
/// whose arrival bound lies within clock + H — and only they run the
/// admission, the gather through the structure-of-arrays CandidateBatch
/// (parent terms from `rows`, one parent walk per ready (task, machine)
/// pair per drive window) and the branch-free score_batch kernel
/// (core/scoring.hpp); the live prefix is then ranked. The dead slots'
/// minimum comes from the index exactly, and `with_dead` also gathers and
/// scores the dead tasks into the pool's tail (SlrhPool). The frontier must
/// have been advanced to `clock` and notified of every commit, and `rows`
/// must serve this frontier only, with one horizon and per machine a clock
/// that never goes back. `batch` is scratch storage reused across builds
/// and holds the pool's slots (allocation-free steady state). `rejects`
/// non-null (only with `with_dead`: the energy tally counts every ready
/// task) receives the per-build admission tallies (the machine-independent
/// ones straight from the frontier's running counters);
/// `scoring_histogram` non-null accumulates the gather+score share of the
/// build. With `with_dead`, the slots match a scan over all |T| subtasks
/// with per-candidate score_candidate calls — membership, order, version,
/// scores and tallies (asserted against the test-only scan oracle in
/// tests/oracles.hpp by tests/test_determinism.cpp); either way the pool
/// matches the full-ready-set gather the index replaced
/// (test::full_gather_pool_oracle, SlrhActivationIndexProperty in
/// tests/test_slrh.cpp).
SlrhPool build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, GatherRows& rows, CandidateBatch& batch,
    SlrhPoolRejects* rejects = nullptr,
    obs::Histogram* scoring_histogram = nullptr, bool with_dead = true);

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

/// Walk the live slots pool.slots[skip_before, live) in order and commit the
/// first candidate whose exact earliest start (communication included)
/// falls within the horizon. Returns its index into pool.slots, or npos.
/// Admission energies come from the precomputed tables; `memo` skips
/// re-planning candidates already proven beyond-horizon in this
/// (machine, clock) scope. The committed plan is the schedule's assignment
/// of the returned slot's task. `taps` observes every passed-over candidate,
/// plan and the commit; when it lists rejections, the dead slots (ranked by
/// rank_dead) are reported in walk order among the live ones, with the
/// reason the full walk would have given them.
/// `min_beyond` non-null accumulates (running min) the smallest proven lower
/// bound on the arrival of every candidate this walk found beyond the
/// horizon — exact for a planned candidate, the gather's arrival_lb for a
/// bound-pruned one — the raw material for the cross-tick skip verdicts
/// (core/sweep.hpp). The dead slots' minimum is folded in when the walk
/// stalls; only a scope without a commit records a verdict, and such a
/// scope ran exactly one walk over a fresh pool, in which every slot passed
/// admission, so the fold equals the minimum the full walk would take.
/// Memo-skipped candidates were accumulated by the earlier walk that
/// inserted them; arrivals only move later within a scope, so those remain
/// valid lower bounds.
std::size_t map_first_startable(const workload::Scenario& scenario,
                                sim::Schedule& schedule, const SlrhParams& params,
                                const SlrhPool& pool, MachineId machine,
                                Cycles clock, const ScenarioCache& cache,
                                BeyondHorizonMemo& memo, Taps& taps,
                                std::size_t skip_before, Cycles* min_beyond);

}  // namespace ahg::core
