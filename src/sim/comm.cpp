#include "sim/comm.hpp"

#include <algorithm>

#include "sim/grid.hpp"
#include "support/contract.hpp"

namespace ahg::sim {

double cmt_seconds_per_bit(const MachineSpec& sender, const MachineSpec& receiver) {
  const double bw = std::min(sender.bandwidth_bps, receiver.bandwidth_bps);
  AHG_EXPECTS_MSG(bw > 0.0, "link bandwidth must be positive");
  return 1.0 / bw;
}

Cycles transfer_cycles(double bits, const MachineSpec& sender,
                       const MachineSpec& receiver) {
  AHG_EXPECTS_MSG(bits >= 0.0, "data volume must be non-negative");
  if (bits == 0.0) return 0;
  const double secs = bits * cmt_seconds_per_bit(sender, receiver);
  const Cycles c = cycles_from_seconds(secs);
  return c > 0 ? c : 1;
}

double transfer_energy(const MachineSpec& sender, Cycles cycles) {
  AHG_EXPECTS_MSG(cycles >= 0, "transfer duration must be non-negative");
  return sender.transmit_energy(cycles);
}

Cycles worst_case_transfer_cycles(double bits, const GridConfig& grid) {
  AHG_EXPECTS_MSG(bits >= 0.0, "data volume must be non-negative");
  if (bits == 0.0) return 0;
  const double bandwidth_bps = grid.min_bandwidth_bps();
  AHG_EXPECTS_MSG(bandwidth_bps > 0.0, "grid bandwidth must be positive");
  const Cycles c = cycles_from_seconds(bits / bandwidth_bps);
  return c > 0 ? c : 1;
}

}  // namespace ahg::sim
