#pragma once
// The benchmark's three workloads. Each pass of a workload builds its
// inputs from a pass seed (timed as set-up, outside the pass wall time),
// runs the workload's heuristic calls through ahg_core's public API (timed
// from outside, one span per call), and validates and digests every final
// schedule (outside the pass wall time).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// Heuristics whose per-call time is reported (slrh1_map_s, ...).
enum Heuristic : std::size_t { kSlrh1 = 0, kSlrh3 = 1, kMaxMax = 2, kNumHeuristics = 3 };

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

struct PassResult {
  double wall_s = 0.0;  ///< summed wall time of the pass's timed calls
  double cpu_s = 0.0;   ///< process CPU time over the same calls
  std::array<std::vector<double>, kNumHeuristics> call_s;  ///< per-call wall
  std::size_t attempted = 0;  ///< heuristic calls
  std::size_t failed = 0;     ///< calls that threw or failed validation
  std::vector<std::string> failures;
  // Quality over the pass's final schedules.
  std::size_t tasks = 0;
  std::size_t t100 = 0;
  std::size_t assigned = 0;
  std::size_t feasible = 0;
  std::size_t outcomes = 0;
  std::uint64_t digest = kFnvOffset;  ///< assignments + comms, in call order
  LayerTotals layers;                 ///< traced passes only
};

struct SetupSample {
  double scenario_s = 0.0;  ///< scenario (and churn trace) generation
  double cache_s = 0.0;     ///< ScenarioCache construction
  double columns_built = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Global thread-pool width the workload runs with.
  virtual std::size_t workers() const = 0;
  /// Build (and discard) one pass's inputs; times are per build.
  virtual SetupSample setup(std::uint64_t pass_seed, SpanLog& spans) const = 0;
  /// Run one pass. `traced` attaches a fresh registry + sink to each call.
  virtual PassResult run_pass(std::uint64_t pass_seed, bool traced,
                              SpanLog& spans) const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

std::vector<std::string> workload_names();

}  // namespace perfbench
