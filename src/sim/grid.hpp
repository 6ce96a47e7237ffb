#pragma once
// Grid configurations (paper §III, Table 1).
//
// Case A: 2 fast + 2 slow machines (baseline, all machines present)
// Case B: 2 fast + 1 slow          (one slow machine lost)
// Case C: 1 fast + 2 slow          (one fast machine lost)

#include <cstddef>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "support/units.hpp"

namespace ahg::sim {

enum class GridCase : std::uint8_t { A, B, C };

std::string to_string(GridCase grid_case);

/// The set of machines participating in the grid, ordered by machine id.
/// By convention (matching the paper's upper-bound reference-machine choice)
/// machine 0 is always a fast machine. Immutable after construction, so the
/// grid-wide minimum bandwidth is computed once there.
class GridConfig {
 public:
  explicit GridConfig(std::vector<MachineSpec> machines);

  static GridConfig make_case(GridCase grid_case);

  /// A custom fast/slow mix; fast machines receive the lower ids.
  static GridConfig make(std::size_t num_fast, std::size_t num_slow);

  std::size_t num_machines() const noexcept { return machines_.size(); }
  const MachineSpec& machine(MachineId id) const;
  const std::vector<MachineSpec>& machines() const noexcept { return machines_; }

  std::size_t count(MachineClass cls) const noexcept;

  /// min_j BW(j): the lowest link bandwidth in the grid, the rate the
  /// paper's worst-case transfer rule assumes (§IV).
  double min_bandwidth_bps() const noexcept { return min_bandwidth_bps_; }

  /// Total system energy: TSE = sum_j B(j)   (paper §IV).
  double total_system_energy() const noexcept;

  /// Remove one machine by id, producing the degraded grid (used by the
  /// dynamic machine-loss experiments). Remaining machines keep their order.
  GridConfig without_machine(MachineId id) const;

  /// Scale every battery capacity by `factor`. Used by reduced-scale
  /// experiment suites: tau scales with |T|, so batteries must scale too or
  /// the paper's energy pressure (fast machines energy-bound, slow machines
  /// time-bound) disappears at small |T|.
  GridConfig with_battery_scale(double factor) const;

 private:
  std::vector<MachineSpec> machines_;
  double min_bandwidth_bps_ = 0.0;
};

}  // namespace ahg::sim
