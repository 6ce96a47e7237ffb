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

#include <cstdint>
#include <span>
#include <vector>

#include "core/objective.hpp"
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
/// supplied by the caller. Max-Max uses this with a hole-aware earliest-fit
/// estimate (its placements backfill schedule holes, so the append-style
/// estimate of score_candidate would misprice every backfilled candidate).
double score_candidate_with_finish(const workload::Scenario& scenario,
                                   const sim::Schedule& schedule,
                                   const Weights& weights,
                                   const ObjectiveTotals& totals, TaskId task,
                                   MachineId machine, VersionKind version,
                                   Cycles finish_est,
                                   AetSign aet_sign = AetSign::Reward);

double score_candidate_with_finish(const ScenarioCache& cache,
                                   const workload::Scenario& scenario,
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

// --- batched SoA scoring -----------------------------------------------
//
// One SLRH pool build evaluates every ready task against a single machine at
// a single clock. Scoring each candidate through score_candidate would pay
// two call chains per candidate — each re-reading machine state, re-walking
// the parents and re-dividing the objective normalisers. The batched path
// (the only one SLRH uses) splits the work into a GATHER stage
// (build_candidate_batch: admission + one parent walk per task, filling
// contiguous structure-of-arrays columns from the ScenarioCache tables and
// the per-machine schedule state) and a SCORE kernel (score_batch:
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

  // Score-kernel outputs.
  std::vector<double> score_secondary, score_primary;
  std::vector<VersionKind> version;  ///< objective-maximising version
  std::vector<double> score;         ///< its score

  // Per-batch scalars (hoisted per-machine state, recorded for diagnostics).
  MachineId machine = kInvalidMachine;
  Cycles start_base = 0;      ///< max(earliest, machine_ready)
  double headroom = 0.0;      ///< available battery + kEnergyFitEps

  std::size_t size() const noexcept { return count_; }
  void clear() noexcept;
  void reserve(std::size_t n);

  /// Logical slot count (set by build_candidate_batch); the columns' vector
  /// sizes are the high-water capacity, not the slot count.
  std::size_t count_ = 0;
};

/// Gather stage: fill `batch` with every task in `ready` whose secondary
/// version fits the machine's available energy (identical admission verdicts
/// to version_fits_energy). Walks each task's parents ONCE, accumulating
/// both versions' tec-delta chains simultaneously. `secondary_only` non-null
/// masks primary consideration per task (churn degrade policy). Returns the
/// number of tasks rejected by the admission energy check.
std::size_t build_candidate_batch(const ScenarioCache& cache,
                                  const workload::Scenario& scenario,
                                  const sim::Schedule& schedule,
                                  std::span<const TaskId> ready,
                                  MachineId machine, Cycles earliest,
                                  const std::vector<std::uint8_t>* secondary_only,
                                  CandidateBatch& batch);

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
