#pragma once
// Generators for the dynamic-environment extensions (DESIGN.md §8): subtask
// arrival (release) times and communication-link outages. Both model the ad
// hoc grid behaviours the paper's introduction motivates but its initial
// study simplifies away.

#include <cstdint>
#include <vector>

#include "workload/scenario.hpp"

namespace ahg::workload {

struct ReleaseParams {
  /// Fraction of tau over which arrivals spread: a subtask's release is
  /// uniform in [release(parents), spread_fraction * tau], so releases stay
  /// monotone along DAG edges. 0 reproduces the paper's all-at-once study.
  double spread_fraction = 0.25;
};

/// Draw monotone release times for every subtask. Deterministic in `seed`.
std::vector<Cycles> generate_release_times(const ReleaseParams& params, const Dag& dag,
                                           Cycles tau, std::uint64_t seed);

struct OutageParams {
  /// Expected number of outages per machine over the whole window.
  double outages_per_machine = 4.0;
  /// Outage durations are Gamma-distributed with this mean (seconds).
  double mean_duration_seconds = 60.0;
  double duration_cv = 0.7;
};

/// Draw link outages (tx+rx blackout windows) per machine, non-overlapping
/// within a machine. Deterministic in `seed`.
std::vector<Scenario::LinkOutage> generate_link_outages(const OutageParams& params,
                                                        std::size_t num_machines,
                                                        Cycles tau,
                                                        std::uint64_t seed);

/// Why a machine leaves the grid mid-run.
enum class DepartureCause : std::uint8_t {
  None = 0,      ///< machine stays for the whole window
  WalkOut,       ///< owner wanders out of wireless range (Poisson process)
  BatteryDeath,  ///< battery drains below usable charge (Gamma lifetime)
};

const char* to_string(DepartureCause cause) noexcept;

struct ChurnParams {
  /// Rate of the walk-out Poisson process, expressed as the expected number
  /// of walk-outs per machine over the whole [0, tau] window; the first
  /// event past tau means the machine stays. 0 disables walk-outs.
  double departures_per_machine = 1.0;
  /// Fraction of machines whose battery independently dies mid-run.
  double battery_death_fraction = 0.25;
  /// Battery lifetimes are Gamma(mean = this fraction of tau, cv below).
  double battery_death_mean_fraction = 0.6;
  double battery_death_cv = 0.4;
  /// Fraction of machines that arrive late instead of at time 0; a late
  /// join is uniform in [1, max_join_fraction * tau].
  double late_join_fraction = 0.0;
  double max_join_fraction = 0.25;
};

/// One generated churn trace: a presence window plus the departure cause for
/// every machine. `windows` plugs directly into Scenario::machine_windows.
struct ChurnTrace {
  std::vector<Scenario::MachineWindow> windows;
  std::vector<DepartureCause> causes;

  std::size_t num_departures() const noexcept {
    std::size_t n = 0;
    for (const auto& w : windows) {
      if (w.depart != Scenario::kNoDeparture) ++n;
    }
    return n;
  }
};

/// Draw a presence window per machine: join (possibly late), then departure
/// as the earlier of a Poisson walk-out and an optional Gamma battery death,
/// both measured from the join. Departures at or past tau are dropped (the
/// machine outlives the deadline window). Deterministic in `seed`.
ChurnTrace generate_machine_churn(const ChurnParams& params, std::size_t num_machines,
                                  Cycles tau, std::uint64_t seed);

}  // namespace ahg::workload
