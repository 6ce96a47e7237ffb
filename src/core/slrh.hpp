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

#include <cstdint>

#include "core/objective.hpp"
#include "core/result.hpp"
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
struct CandidateBatch;

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
  /// scope ends without a commit, remember the smallest beyond-horizon
  /// arrival it proved, tagged with the frontier revision and the machine's
  /// energy epoch; while both epochs stand, a later tick whose clock + H
  /// stays below that arrival skips the machine's pool build outright — the
  /// serial sweep would provably commit nothing there. Schedules are
  /// bit-identical either way (asserted by tests/test_determinism.cpp); only
  /// pool-build counts and their telemetry differ (MappingResult::
  /// pools_reused tallies the skipped scopes).
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

/// One entry of the ordered candidate pool U: the subtask with its
/// objective-maximising version and that version's score.
struct SlrhPoolCandidate {
  TaskId task = kInvalidTask;
  VersionKind version = VersionKind::Primary;
  double score = 0.0;
};

/// Pool-admission rejection tally for one pool build (telemetry only).
struct SlrhPoolRejects {
  std::size_t unreleased = 0;
  std::size_t assigned = 0;
  std::size_t parents = 0;
  std::size_t energy = 0;

  bool any() const noexcept { return unreleased + assigned + parents + energy > 0; }
};

/// The SLRH pool builder: iterate only the frontier's ready tasks (released,
/// unassigned, parents assigned — typically << |T|) and run admission,
/// gathering and scoring through the structure-of-arrays CandidateBatch +
/// score_batch kernel (core/scoring.hpp) — one parent walk per task,
/// branch-free scores over contiguous columns. The frontier must have been
/// advanced to `clock` and notified of every commit. `rejects` non-null
/// receives the per-build admission tallies (the machine-independent ones
/// straight from the frontier's running counters); `scoring_histogram`
/// non-null accumulates the gather+score share of the build. `scratch`
/// non-null reuses that batch's storage across builds (allocation-free
/// steady state); null uses a local. The pool matches a scan over all |T|
/// subtasks with per-candidate score_candidate calls — membership, order,
/// version, scores and tallies (asserted against the test-only scan oracle
/// in tests/oracles.hpp by tests/test_determinism.cpp).
std::vector<SlrhPoolCandidate> build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, SlrhPoolRejects* rejects = nullptr,
    obs::Histogram* scoring_histogram = nullptr,
    CandidateBatch* scratch = nullptr);

}  // namespace ahg::core
