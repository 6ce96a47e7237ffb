#pragma once
// The Max-Max static baseline heuristic (paper §V), modelled on the
// Min-Min family of Ibarra & Kim [IbK77] but maximising the same global
// objective function the SLRH variants use.
//
// At every round: build the pool U of feasible subtask/version pairs —
// parents mapped, and EACH version independently energy-feasible under the
// worst-case communication rule (both versions of the same subtask may sit
// in U simultaneously). For each machine, find the pair giving the maximum
// objective increase; across machines, commit the best triplet. A triplet
// may be scheduled before the machine's availability time if a sufficiently
// large hole exists in its schedule (earliest-fit placement honours
// precedence and communication constraints). Repeat until every subtask is
// mapped or no feasible pair remains.
//
// Being static (offline), Max-Max has no clock, no timestep, and no horizon:
// it sees the whole frontier at once and may backfill arbitrarily.

#include "core/objective.hpp"
#include "core/result.hpp"
#include "support/event_log.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class FlightRecorder;
class TaskLedger;
}  // namespace ahg::obs

namespace ahg::core {

class ScenarioCache;

struct MaxMaxParams {
  Weights weights = Weights::make(0.5, 0.1);
  AetSign aet_sign = AetSign::Reward;
  /// Deadline awareness: candidates whose placement would finish after tau
  /// are dropped from the pool. The paper's offline baseline must behave
  /// this way to reach its reported performance — with the positive-gamma
  /// objective, nothing else ever prefers the secondary version on a slow
  /// machine, so a deadline-blind Max-Max overshoots tau at every
  /// non-degenerate weight choice and the tuner can only certify
  /// all-secondary mappings (see DESIGN.md §4). Disable for the ablation
  /// bench that demonstrates exactly that failure mode.
  bool enforce_tau = true;

  // Observation handles, optional and not owned (contract: core/taps.hpp).
  // Max-Max is clock-free: its records carry the 1-based selection round.
  obs::Sink* sink = nullptr;  ///< decision events; phase metrics via metrics()
  obs::FlightRecorder* recorder = nullptr;  ///< one frame + "select" span per round
  obs::TaskLedger* ledger = nullptr;        ///< per-subtask lifecycle transitions

  /// Optional precomputed pure-scenario tables (not owned). Null — the
  /// default — makes the run build its own; supply one to amortise the
  /// build across many runs on the same scenario (the tuner does).
  const ScenarioCache* cache = nullptr;

  void validate() const { weights.validate(); }
};

MappingResult run_maxmax(const workload::Scenario& scenario, const MaxMaxParams& params);

}  // namespace ahg::core
