#pragma once
// Uniform handle over the four evaluated heuristics (paper §V):
// SLRH-1, SLRH-2, SLRH-3 and the static Max-Max baseline.

#include <cstdint>
#include <string>
#include <vector>

#include "core/maxmax.hpp"
#include "core/result.hpp"
#include "core/slrh.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

enum class HeuristicKind : std::uint8_t { Slrh1, Slrh2, Slrh3, MaxMax };

std::string to_string(HeuristicKind kind);

/// The heuristics the paper carries through its final comparison (SLRH-2 is
/// dropped after §VII's weight study because it rarely achieves a complete
/// feasible mapping).
std::vector<HeuristicKind> reported_heuristics();

/// All four heuristics, including SLRH-2.
std::vector<HeuristicKind> all_heuristics();

/// Clock parameters shared by the SLRH variants (ignored by Max-Max).
struct SlrhClock {
  Cycles dt = 10;       ///< paper's selected timestep
  Cycles horizon = 100; ///< paper's selected receding horizon
};

/// Run any heuristic on a scenario with the given objective weights.
/// `sink`, `recorder` and `ledger` are the run's observation handles
/// (core/taps.hpp). `cache` (not owned, may be null) supplies precomputed
/// pure-scenario tables built from `scenario`; null makes each run build its
/// own. It is read-only here, so one instance may serve concurrent callers
/// running the same scenario many times (the tuner, the Lagrangian loop).
MappingResult run_heuristic(HeuristicKind kind, const workload::Scenario& scenario,
                            const Weights& weights, const SlrhClock& clock = {},
                            AetSign aet_sign = AetSign::Reward,
                            obs::Sink* sink = nullptr,
                            const ScenarioCache* cache = nullptr,
                            obs::FlightRecorder* recorder = nullptr,
                            obs::TaskLedger* ledger = nullptr);

}  // namespace ahg::core
