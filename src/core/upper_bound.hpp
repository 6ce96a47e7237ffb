#pragma once
// Upper bound on T100 via "equivalent computing cycles" (paper §VI).
//
// Each machine contributes tau / MR(j) equivalent seconds of reference-
// machine (machine 0) compute capacity, where
//
//   MR(j) = min_i  ETC(i, j) / ETC(i, 0)
//
// is the machine's minimum relative execution-time ratio over all subtasks —
// the best case, guaranteeing the result bounds T100 from above. The bound
// then greedily "executes" primary versions in order of increasing energy
// cost (each subtask on its cheapest-energy machine), drawing from the
// pooled equivalent cycles (TECC) and pooled system energy (TSE), and stops
// at the first subtask that no longer fits either pool.

#include <vector>

#include "support/units.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

class ScenarioCache;

struct UpperBoundResult {
  std::size_t bound = 0;             ///< max number of primary versions
  std::vector<double> min_ratio;     ///< MR(j) per machine (MR(0) == 1)
  double tecc_seconds = 0.0;         ///< total equivalent computing capacity
  double tse = 0.0;                  ///< total system energy
  double cycles_used_seconds = 0.0;  ///< equivalent seconds consumed at stop
  double energy_used = 0.0;          ///< energy consumed at stop
  bool cycle_limited = false;        ///< stopped because TECC ran out
  bool energy_limited = false;       ///< stopped because TSE ran out
};

/// MR(j) for every machine of an ETC matrix (reference: machine 0).
std::vector<double> min_ratios(const workload::EtcMatrix& etc);

/// Compute the upper bound for a scenario (grid + ETC + tau; the DAG plays
/// no role in the bound — precedence is deliberately ignored so the result
/// remains an upper bound). `cache` is accepted and ignored: the bound's
/// primary compute energy is one multiply of the ETC seconds it reads anyway,
/// so there is nothing to look up.
UpperBoundResult compute_upper_bound(const workload::Scenario& scenario,
                                     const ScenarioCache* cache = nullptr);

}  // namespace ahg::core
