#pragma once
// Candidate scoring against the global objective function.
//
// Both SLRH and Max-Max order candidates by the objective value the global
// state WOULD have if the candidate were committed. Computing the exact
// start time of every candidate would require a full communication-slot
// search per candidate per machine; like the paper (which orders the pool
// first and only then finds the first candidate startable within the
// horizon), we score with a cheap finish estimate — max(lower_bound,
// machine ready time) + execution time — and run the exact placement search
// only for the candidates actually considered for selection.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "sim/comm.hpp"
#include "sim/schedule.hpp"
#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

class ScenarioCache;

/// Objective-normalisation constants for a scenario.
ObjectiveTotals objective_totals(const workload::Scenario& scenario);

/// Hypothetical global objective if (task, version) were mapped to machine.
/// `earliest` is a lower bound on the start time (SLRH: the current clock;
/// Max-Max: 0). TEC' adds exec energy plus the exact energies of the
/// incoming transfers (computable without slot search); AET' uses the
/// finish estimate described above.
double score_candidate(const workload::Scenario& scenario,
                       const sim::Schedule& schedule, const Weights& weights,
                       const ObjectiveTotals& totals, TaskId task,
                       MachineId machine, VersionKind version, Cycles earliest,
                       AetSign aet_sign = AetSign::Reward);

/// Cache-aware form: duration and execution energy come from the precomputed
/// tables (bit-identical values); the incoming-transfer walk — which depends
/// on where parents actually landed — stays exact.
double score_candidate(const ScenarioCache& cache,
                       const workload::Scenario& scenario,
                       const sim::Schedule& schedule, const Weights& weights,
                       const ObjectiveTotals& totals, TaskId task,
                       MachineId machine, VersionKind version, Cycles earliest,
                       AetSign aet_sign = AetSign::Reward);

/// Same hypothetical-objective computation, but with the finish time
/// supplied by the caller: Max-Max's hole-aware earliest-fit estimate (its
/// placements backfill schedule holes, so the append-style estimate of
/// score_candidate would misprice every backfilled candidate). Max-Max's
/// candidate table scores with this function's exact expression; the
/// test-only rescan oracle calls it directly.
double score_candidate_with_finish(const workload::Scenario& scenario,
                                   const sim::Schedule& schedule,
                                   const Weights& weights,
                                   const ObjectiveTotals& totals, TaskId task,
                                   MachineId machine, VersionKind version,
                                   Cycles finish_est,
                                   AetSign aet_sign = AetSign::Reward);

/// Decision-trace variants: the same hypothetical objective, decomposed into
/// its weighted terms. Used only on the telemetry path (a sink is attached);
/// the comparison/ordering path keeps the scalar functions above.
ObjectiveTerms score_candidate_terms(const workload::Scenario& scenario,
                                     const sim::Schedule& schedule,
                                     const Weights& weights,
                                     const ObjectiveTotals& totals, TaskId task,
                                     MachineId machine, VersionKind version,
                                     Cycles earliest,
                                     AetSign aet_sign = AetSign::Reward);

ObjectiveTerms score_candidate_terms_with_finish(
    const workload::Scenario& scenario, const sim::Schedule& schedule,
    const Weights& weights, const ObjectiveTotals& totals, TaskId task,
    MachineId machine, VersionKind version, Cycles finish_est,
    AetSign aet_sign = AetSign::Reward);

// --- parent terms -----------------------------------------------------------
//
// What a task's committed parents fix for one candidate machine: both
// versions' tec deltas and the data-arrival lower bound, from ONE walk over
// the parents. Every scoring path that prices incoming transfers (the scalar
// score, the SLRH gather rows, Max-Max's candidate table) goes through
// walk_parents, so the accumulation order exists once.

/// The parent-dependent terms of one (task, machine) pair. The arrival
/// bound is split so it can be re-evaluated at any clock without the walk:
///   arrival_lb(earliest) = max(A, earliest + D)
/// where A is the max over same-machine or empty-edge parents of `finish`
/// and over cross-machine parents of `finish + dur`, and D is the max
/// cross-machine transfer duration (absent without a cross-machine parent).
/// Per cross-machine parent, max(earliest, finish) + dur ==
/// max(earliest + dur, finish + dur), so the split is exact in integers.
struct ParentTerms {
  static constexpr Cycles kNoTransfer = -1;  ///< D when no data crosses machines

  double tec_delta_secondary = 0.0;  ///< secondary exec + incoming-transfer energy
  double tec_delta_primary = 0.0;    ///< primary exec + incoming-transfer energy
  Cycles arrival_base = 0;           ///< A
  Cycles transfer_max = kNoTransfer; ///< D

  /// Lower bound on plan_placement's arrival at not_before = `earliest`.
  Cycles arrival_lb(Cycles earliest) const noexcept {
    return transfer_max == kNoTransfer
               ? arrival_base
               : std::max(arrival_base, earliest + transfer_max);
  }
};

/// One walk over `task`'s parents (all must be assigned) for `machine`. Each
/// tec chain starts from the supplied exec energy and adds the identical
/// transfer energies in parent order — the accumulation order of
/// score_candidate. Channel contention can only push a transfer later, never
/// earlier, so arrival_lb never exceeds the planned arrival; the bound leaves
/// out the release, which gates the start, not the arrival. Inline, so a
/// caller that reads only the tec deltas (Max-Max) compiles the bound away.
inline ParentTerms walk_parents(const workload::Scenario& scenario,
                                const sim::Schedule& schedule, TaskId task,
                                MachineId machine, double exec_energy_secondary,
                                double exec_energy_primary) {
  ParentTerms out;
  out.tec_delta_secondary = exec_energy_secondary;
  out.tec_delta_primary = exec_energy_primary;
  const auto& receiver = scenario.grid.machine(machine);
  for (const TaskId parent : scenario.dag.parents(task)) {
    const auto& pa = schedule.assignment(parent);  // throws if unassigned
    const double bits =
        pa.machine == machine ? 0.0 : scenario.edge_bits(parent, task, pa.version);
    if (bits <= 0.0) {  // same machine or empty edge: the data is there at finish
      out.arrival_base = std::max(out.arrival_base, pa.finish);
      continue;
    }
    const auto& sender = scenario.grid.machine(pa.machine);
    const Cycles dur = sim::transfer_cycles(bits, sender, receiver);
    out.arrival_base = std::max(out.arrival_base, pa.finish + dur);
    out.transfer_max = std::max(out.transfer_max, dur);
    const double transfer = sim::transfer_energy(sender, dur);
    out.tec_delta_secondary += transfer;
    out.tec_delta_primary += transfer;
  }
  return out;
}

/// Per-ready-task parent terms for one drive window. Once a task is ready
/// its parents are committed and cannot move inside the window, so the entry
/// for (task, machine) is filled by one walk_parents call on first use and
/// read by every later pool build. A task gets a row (one entry per machine)
/// when a gather first meets it and gives it back when it commits
/// (drop()); freed rows are reused, so storage is O(peak ready x |M|) plus
/// one row index per task. Not thread-safe: one table per driver run.
///
/// The rows also carry the window's horizon-activation index (DESIGN.md
/// §4k): per machine, the ready tasks split by when their arrival bound
/// max(A, clock + D) can fall within clock + H. With D <= H that happens
/// exactly once clock >= A - H, and then for the rest of the window, so
/// such a task is either live or pending in A order; with D > H it never
/// happens, and the task sits in a side list. A task the machine's battery
/// cannot admit waits, unclassified, until it can. An SLRH pool build gathers
/// the live tasks only; the dead ones are read for the skip verdict's
/// minimum and gathered only when an observer reads the whole pool.
class GatherRows {
 public:
  GatherRows(std::size_t num_tasks, std::size_t num_machines);

  /// The entry of (task, machine), walking the parents on first use. The
  /// reference is valid until the next terms() call (a new row may grow the
  /// table).
  const ParentTerms& terms(const ScenarioCache& cache,
                           const workload::Scenario& scenario,
                           const sim::Schedule& schedule, TaskId task,
                           MachineId machine);

  /// Mark `task` committed and release its row, if it has one; every commit
  /// must be dropped. The activation index forgets the task lazily: each
  /// list skips or sheds dropped tasks the next time it is read.
  void drop(TaskId task) noexcept;

  /// Rows currently held (ready tasks a gather has met and that have not
  /// committed).
  std::size_t rows_in_use() const noexcept { return in_use_; }

  /// Bring `machine`'s activation index to `clock` and return its live
  /// tasks (unordered): those whose arrival bound lies within
  /// clock + horizon. `joined` is the frontier's ReadyFrontier::joined();
  /// the tasks past the prefix this machine has already read are picked up
  /// (dropped ones skipped) and classified with one terms() fill each —
  /// once their secondary need fits `headroom` (the machine's available
  /// energy + kEnergyFitEps); until then they wait unfilled and are tested
  /// again at each call. Pending tasks whose A <= clock + horizon are
  /// promoted; dropped live and side tasks, and dropped pending tasks up to
  /// the first one still dead, are shed. Per machine the clock
  /// must not go backwards, and the horizon is fixed for the table's
  /// lifetime. The span is valid until the next call for this machine.
  std::span<const TaskId> activate(const ScenarioCache& cache,
                                   const workload::Scenario& scenario,
                                   const sim::Schedule& schedule,
                                   std::span<const TaskId> joined, MachineId machine,
                                   Cycles clock, Cycles horizon, double headroom);

  /// Smallest arrival_lb(clock) over `machine`'s dead tasks whose secondary
  /// energy need fits `headroom` (the pool admission), max() when there is
  /// none: A of the first admitted pending task in A order, folded with
  /// max(A, clock + D) of each admitted side-list task. Valid right after
  /// activate() at the same clock.
  Cycles dead_min_arrival(const ScenarioCache& cache, MachineId machine, Cycles clock,
                          double headroom) const;

  /// `machine`'s uncommitted dead tasks (pending, then side list) and the
  /// ones still waiting for admission, for a build that materialises the
  /// whole pool. Sheds committed pending tasks. The span is valid until the
  /// next dead() call.
  std::span<const TaskId> dead(MachineId machine);

 private:
  static constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);

  /// A task that turns live once clock + H reaches its A.
  struct Pending {
    Cycles arrival_base;
    TaskId task;
  };
  /// One machine's activation index.
  struct Activation {
    std::size_t joined_read = 0;   ///< prefix of joined() already picked up
    Cycles clock = 0;              ///< last activate() clock
    std::vector<TaskId> live;      ///< arrival bound within clock + H for good
    std::vector<Pending> pending;  ///< D <= H, A > clock + H; largest A first
    std::vector<TaskId> beyond;    ///< D > H: dead for the whole window
    std::vector<TaskId> unadmitted;  ///< picked up over the headroom, unfilled
  };

  /// drop() is the index's commit signal.
  bool dropped(TaskId task) const noexcept {
    return committed_[static_cast<std::size_t>(task)] != 0;
  }
  const ParentTerms& filled_terms(TaskId task, MachineId machine) const noexcept {
    return entries_[static_cast<std::size_t>(row_of_[static_cast<std::size_t>(task)]) *
                        num_machines_ +
                    static_cast<std::size_t>(machine)];
  }

  std::size_t num_machines_;
  std::vector<std::uint32_t> row_of_;  ///< task -> row, kNoRow without one
  std::vector<std::uint8_t> committed_;  ///< task -> dropped this window
  std::vector<ParentTerms> entries_;   ///< rows x |M|
  std::vector<std::uint8_t> filled_;   ///< rows x |M|
  std::vector<std::uint32_t> free_;    ///< released rows
  std::size_t in_use_ = 0;
  std::vector<Activation> activation_;  ///< one per machine
  Cycles horizon_ = -1;                 ///< H, fixed by the first activate()
  std::vector<TaskId> dead_;            ///< dead() scratch
};

// --- batched SoA scoring -----------------------------------------------
//
// One SLRH pool build evaluates its candidates (the live ready tasks, and
// the dead ones when an observer reads them) against a single machine at a
// single clock. Scoring each candidate through score_candidate would pay
// two call chains per candidate — each re-reading machine state, re-walking
// the parents and re-dividing the objective normalisers. The batched path
// (the only one SLRH uses) splits the work into a GATHER stage
// (gather_candidates: admission plus a read of each task's GatherRows
// entry, filling contiguous structure-of-arrays columns from the entry, the
// ScenarioCache tables and the per-machine schedule state) and a SCORE
// kernel (score_batch:
// branch-free arithmetic over the columns, admission classification by
// conditional select).
//
// Bit-identity contract (enforced by the property tests in
// tests/test_scoring.cpp and the pool-level scan oracle in
// tests/test_determinism.cpp): every double in the batch is produced by the
// SAME expression in the SAME operation order as score_candidate — the
// tec-delta accumulation per version starts from the version's exec energy
// and adds the identical per-parent transfer energies in parent order; the
// finish estimate is max(earliest, machine_ready) + duration with the max
// hoisted (integers — exact); the objective is evaluated with
// objective_value's exact expression tree, with the two per-batch-constant
// t100 terms (t100 and t100+1 over |T|) and the sign*gamma product hoisted
// as whole subtrees (hoisting a subtree reuses its identical double).

/// One entry of the ordered candidate pool U: the subtask with its
/// objective-maximising version and that version's score, plus the gather's
/// lower bound on its data arrival (CandidateBatch::arrival_lb), which lets
/// the map walk reject it as beyond the horizon without planning it.
struct SlrhPoolCandidate {
  TaskId task = kInvalidTask;
  VersionKind version = VersionKind::Primary;
  double score = 0.0;
  Cycles arrival_lb = 0;
};

/// The pool order: score descending, ties by smaller task id. Scores are
/// distinct per task, so it is a strict total order over a pool.
inline bool ranks_before(const SlrhPoolCandidate& a,
                         const SlrhPoolCandidate& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.task < b.task;
}

/// Structure-of-arrays candidate columns for one (machine, clock) pool
/// build. Slots hold the ready tasks that passed secondary-version admission
/// (the pool membership rule); per-version columns are indexed by slot.
/// Reused across builds: columns grow to the high-water ready-set size and
/// never shrink, so steady-state filling is allocation- AND memset-free (a
/// shrink-regrow cycle would value-initialize the regrown tail on every
/// build). Only slots [0, size()) are meaningful; entries beyond are stale.
struct CandidateBatch {
  std::vector<TaskId> task;

  // Gather outputs (pure reads from ScenarioCache / schedule state). Finish
  // estimates are stored as doubles: the int64 cycle value is far below
  // 2^53, so the conversion is exact, and max over exactly-converted values
  // equals the converted integer max bit for bit — which lets the score
  // kernel stay in pure double arithmetic (and the compiler keep it in
  // divpd/maxpd lanes) without breaking the bit-identity contract.
  std::vector<double> finish_secondary, finish_primary;    ///< finish estimates
  std::vector<double> tec_delta_secondary, tec_delta_primary;  ///< exec + incoming-transfer energy
  std::vector<std::uint8_t> primary_allowed;  ///< degrade mask + primary admission
  /// Lower bound on plan_placement's arrival at not_before = earliest
  /// (ParentTerms::arrival_lb).
  std::vector<Cycles> arrival_lb;

  // Score-kernel outputs.
  std::vector<double> score_secondary, score_primary;
  std::vector<VersionKind> version;  ///< objective-maximising version
  std::vector<double> score;         ///< its score

  // Per-batch scalars (hoisted per-machine state, recorded for diagnostics).
  MachineId machine = kInvalidMachine;
  Cycles earliest = 0;        ///< the clock the arrival bounds are taken at
  Cycles start_base = 0;      ///< max(earliest, machine_ready)
  double headroom = 0.0;      ///< available battery + kEnergyFitEps

  /// Storage of the pool an SLRH build makes from this batch (SlrhPool
  /// views it), reused like the columns.
  std::vector<SlrhPoolCandidate> slots;

  std::size_t size() const noexcept { return count_; }
  /// Empty the batch and hoist (machine, earliest)'s per-batch state from
  /// the schedule.
  void start(const sim::Schedule& schedule, MachineId machine, Cycles earliest);

  /// Logical slot count (set by gather_candidates); the columns' vector
  /// sizes are the high-water capacity, not the slot count.
  std::size_t count_ = 0;
};

/// Gather stage: append to `batch` (started for its machine and clock)
/// every task in `tasks` whose secondary version fits the machine's
/// available energy (identical admission verdicts to version_fits_energy).
/// The tec-delta columns and the arrival bound come from each task's `rows`
/// entry (filled by one parent walk the first time the pair is gathered; no
/// walk after that). `secondary_only` non-null masks primary consideration
/// per task (churn degrade policy). Returns the number of tasks rejected by
/// the admission energy check.
std::size_t gather_candidates(const ScenarioCache& cache,
                              const workload::Scenario& scenario,
                              const sim::Schedule& schedule,
                              std::span<const TaskId> tasks,
                              const std::vector<std::uint8_t>* secondary_only,
                              GatherRows& rows, CandidateBatch& batch);

/// batch.start(schedule, machine, earliest), then gather_candidates over
/// `ready`.
std::size_t build_candidate_batch(const ScenarioCache& cache,
                                  const workload::Scenario& scenario,
                                  const sim::Schedule& schedule,
                                  std::span<const TaskId> ready,
                                  MachineId machine, Cycles earliest,
                                  const std::vector<std::uint8_t>* secondary_only,
                                  GatherRows& rows, CandidateBatch& batch);

/// Score kernel: compute both versions' scores and the admission
/// classification (primary iff allowed and >= secondary) for every slot,
/// branch-free over the columns. Scores are bit-identical to
/// score_candidate; the classification matches the scalar pool build's
/// version choice exactly.
void score_batch(CandidateBatch& batch, const Weights& weights,
                 const ObjectiveTotals& totals, std::size_t t100_base,
                 double tec_base, Cycles aet_base,
                 AetSign aet_sign = AetSign::Reward);

}  // namespace ahg::core
