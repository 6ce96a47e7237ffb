#pragma once
// Communication timing model (paper §III).
//
// The time to transmit one bit of a global data item from machine i to
// machine j is CMT(i, j) = 1 / min(BW(i), BW(j)): the link runs at the
// slower endpoint's bandwidth. Transfers between subtasks on the same
// machine take no time and no energy.

#include "sim/grid.hpp"
#include "sim/machine.hpp"
#include "support/units.hpp"

namespace ahg::sim {

/// Seconds per bit over the i -> j link.
double cmt_seconds_per_bit(const MachineSpec& sender, const MachineSpec& receiver);

/// Duration in clock cycles of transferring `bits` over the i -> j link
/// (ceil; a non-empty transfer occupies at least one cycle). Zero bits take
/// zero cycles.
Cycles transfer_cycles(double bits, const MachineSpec& sender,
                       const MachineSpec& receiver);

/// Energy drawn from the SENDER's battery by a transfer of `cycles` cycles
/// (receivers consume no energy — paper assumption (a)).
double transfer_energy(const MachineSpec& sender, Cycles cycles);

/// Worst-case duration of transferring `bits` out of a machine of `grid`
/// when the receiver is unknown: assume the lowest-bandwidth link in the
/// grid (the paper's conservative feasibility rule, §IV). The sender is in
/// the grid, so the link runs at grid.min_bandwidth_bps() whoever sends and
/// the value depends on the data volume alone.
Cycles worst_case_transfer_cycles(double bits, const GridConfig& grid);

}  // namespace ahg::sim
