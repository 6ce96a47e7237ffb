#include "sim/grid.hpp"

#include <algorithm>

#include "support/contract.hpp"

namespace ahg::sim {

std::string to_string(GridCase grid_case) {
  switch (grid_case) {
    case GridCase::A: return "Case A";
    case GridCase::B: return "Case B";
    case GridCase::C: return "Case C";
  }
  return "Case ?";
}

GridConfig::GridConfig(std::vector<MachineSpec> machines) : machines_(std::move(machines)) {
  AHG_EXPECTS_MSG(!machines_.empty(), "grid needs at least one machine");
  min_bandwidth_bps_ = machines_.front().bandwidth_bps;
  for (const auto& m : machines_) {
    min_bandwidth_bps_ = std::min(min_bandwidth_bps_, m.bandwidth_bps);
  }
}

GridConfig GridConfig::make(std::size_t num_fast, std::size_t num_slow) {
  AHG_EXPECTS_MSG(num_fast + num_slow > 0, "grid needs at least one machine");
  std::vector<MachineSpec> machines;
  machines.reserve(num_fast + num_slow);
  for (std::size_t i = 0; i < num_fast; ++i) machines.push_back(fast_machine_spec());
  for (std::size_t i = 0; i < num_slow; ++i) machines.push_back(slow_machine_spec());
  return GridConfig(std::move(machines));
}

GridConfig GridConfig::make_case(GridCase grid_case) {
  switch (grid_case) {
    case GridCase::A: return make(2, 2);
    case GridCase::B: return make(2, 1);
    case GridCase::C: return make(1, 2);
  }
  return make(2, 2);
}

const MachineSpec& GridConfig::machine(MachineId id) const {
  AHG_EXPECTS_MSG(id >= 0 && static_cast<std::size_t>(id) < machines_.size(),
                  "machine id out of range");
  return machines_[static_cast<std::size_t>(id)];
}

std::size_t GridConfig::count(MachineClass cls) const noexcept {
  std::size_t n = 0;
  for (const auto& m : machines_) {
    if (m.cls == cls) ++n;
  }
  return n;
}

double GridConfig::total_system_energy() const noexcept {
  double total = 0.0;
  for (const auto& m : machines_) total += m.battery_capacity;
  return total;
}

GridConfig GridConfig::with_battery_scale(double factor) const {
  AHG_EXPECTS_MSG(factor > 0.0, "battery scale must be positive");
  std::vector<MachineSpec> scaled = machines_;
  for (auto& m : scaled) m.battery_capacity *= factor;
  return GridConfig(std::move(scaled));
}

GridConfig GridConfig::without_machine(MachineId id) const {
  AHG_EXPECTS_MSG(id >= 0 && static_cast<std::size_t>(id) < machines_.size(),
                  "machine id out of range");
  AHG_EXPECTS_MSG(machines_.size() > 1, "cannot remove the last machine");
  std::vector<MachineSpec> remaining;
  remaining.reserve(machines_.size() - 1);
  for (std::size_t j = 0; j < machines_.size(); ++j) {
    if (static_cast<MachineId>(j) != id) remaining.push_back(machines_[j]);
  }
  return GridConfig(std::move(remaining));
}

}  // namespace ahg::sim
