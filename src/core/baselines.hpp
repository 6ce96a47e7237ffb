#pragma once
// Classic scheduling baselines beyond the paper's Max-Max: the Min-Min
// completion-time heuristic of Ibarra & Kim [IbK77] (the family Max-Max is
// modelled on), OLB (opportunistic load balancing), and a seeded random
// mapper. These give the evaluation floor/context the paper's related-work
// section points to, and exercise the same placement substrate.
//
// All three are static (offline) mappers with the same input/output contract
// as run_maxmax: they process the precedence frontier, pick (task, machine,
// version) triplets, and commit through the shared placement planner, so
// every schedule they produce passes the independent validator.

#include <cstdint>

#include "core/result.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

struct BaselineParams {
  /// Deadline awareness (same critical-path-aware rule as Max-Max): a
  /// candidate is admissible only if its finish plus the cheapest execution
  /// of its longest descendant chain fits within tau.
  bool enforce_tau = true;
};

/// Min-Min [IbK77], adapted to DAGs and versions: among frontier candidates,
/// repeatedly commit the (task, machine, version) whose exact completion
/// time is MINIMUM (min over tasks of min over machines), honouring energy
/// and deadline admissibility.
MappingResult run_minmin(const workload::Scenario& scenario,
                         const BaselineParams& params = {});

/// OLB: assign each frontier task (in deterministic id order) to the machine
/// that becomes available earliest, ignoring execution times — the classic
/// low-information baseline.
MappingResult run_olb(const workload::Scenario& scenario,
                      const BaselineParams& params = {});

struct RandomMapperParams {
  BaselineParams base;
  std::uint64_t seed = 1;
};

/// Random mapper: frontier tasks in random order onto random admissible
/// machines with random admissible versions. The statistical floor.
MappingResult run_random(const workload::Scenario& scenario,
                         const RandomMapperParams& params = {});

}  // namespace ahg::core
