// Machine specs (Table 2 constants) and grid configurations (Table 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/grid.hpp"
#include "sim/machine.hpp"
#include "support/contract.hpp"

namespace ahg::sim {
namespace {

TEST(MachineSpec, FastMatchesTable2) {
  const MachineSpec m = fast_machine_spec();
  EXPECT_EQ(m.cls, MachineClass::Fast);
  EXPECT_DOUBLE_EQ(m.battery_capacity, 580.0);
  EXPECT_DOUBLE_EQ(m.compute_power, 0.1);
  EXPECT_DOUBLE_EQ(m.transmit_power, 0.2);
  EXPECT_DOUBLE_EQ(m.bandwidth_bps, 8.0e6);
}

TEST(MachineSpec, SlowMatchesTable2) {
  const MachineSpec m = slow_machine_spec();
  EXPECT_EQ(m.cls, MachineClass::Slow);
  EXPECT_DOUBLE_EQ(m.battery_capacity, 58.0);
  EXPECT_DOUBLE_EQ(m.compute_power, 0.001);
  EXPECT_DOUBLE_EQ(m.transmit_power, 0.002);
  EXPECT_DOUBLE_EQ(m.bandwidth_bps, 4.0e6);
}

TEST(MachineSpec, EnergyHelpers) {
  const MachineSpec m = fast_machine_spec();
  EXPECT_DOUBLE_EQ(m.compute_energy(100), 1.0);   // 10 s * 0.1 u/s
  EXPECT_DOUBLE_EQ(m.transmit_energy(100), 2.0);  // 10 s * 0.2 u/s
  EXPECT_DOUBLE_EQ(m.compute_energy(0), 0.0);
}

TEST(MachineClass, ToString) {
  EXPECT_EQ(to_string(MachineClass::Fast), "fast");
  EXPECT_EQ(to_string(MachineClass::Slow), "slow");
}

TEST(GridConfig, CaseCompositionsMatchTable1) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  EXPECT_EQ(a.num_machines(), 4u);
  EXPECT_EQ(a.count(MachineClass::Fast), 2u);
  EXPECT_EQ(a.count(MachineClass::Slow), 2u);

  const GridConfig b = GridConfig::make_case(GridCase::B);
  EXPECT_EQ(b.num_machines(), 3u);
  EXPECT_EQ(b.count(MachineClass::Fast), 2u);
  EXPECT_EQ(b.count(MachineClass::Slow), 1u);

  const GridConfig c = GridConfig::make_case(GridCase::C);
  EXPECT_EQ(c.num_machines(), 3u);
  EXPECT_EQ(c.count(MachineClass::Fast), 1u);
  EXPECT_EQ(c.count(MachineClass::Slow), 2u);
}

TEST(GridConfig, FastMachinesGetLowerIds) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  EXPECT_EQ(a.machine(0).cls, MachineClass::Fast);
  EXPECT_EQ(a.machine(1).cls, MachineClass::Fast);
  EXPECT_EQ(a.machine(2).cls, MachineClass::Slow);
  EXPECT_EQ(a.machine(3).cls, MachineClass::Slow);
}

TEST(GridConfig, TotalSystemEnergy) {
  EXPECT_DOUBLE_EQ(GridConfig::make_case(GridCase::A).total_system_energy(), 1276.0);
  EXPECT_DOUBLE_EQ(GridConfig::make_case(GridCase::B).total_system_energy(), 1218.0);
  EXPECT_DOUBLE_EQ(GridConfig::make_case(GridCase::C).total_system_energy(), 696.0);
}

TEST(GridConfig, WithoutMachinePreservesOrder) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  const GridConfig dropped = a.without_machine(1);
  EXPECT_EQ(dropped.num_machines(), 3u);
  EXPECT_EQ(dropped.machine(0).cls, MachineClass::Fast);
  EXPECT_EQ(dropped.machine(1).cls, MachineClass::Slow);
  EXPECT_EQ(dropped.machine(2).cls, MachineClass::Slow);
}

TEST(GridConfig, WithoutMachineRejectsBadInput) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  EXPECT_THROW(a.without_machine(4), PreconditionError);
  EXPECT_THROW(a.without_machine(-1), PreconditionError);
  const GridConfig one = GridConfig::make(1, 0);
  EXPECT_THROW(one.without_machine(0), PreconditionError);
}

TEST(GridConfig, BatteryScaling) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  const GridConfig scaled = a.with_battery_scale(0.25);
  EXPECT_DOUBLE_EQ(scaled.machine(0).battery_capacity, 145.0);
  EXPECT_DOUBLE_EQ(scaled.machine(2).battery_capacity, 14.5);
  // Other parameters untouched.
  EXPECT_DOUBLE_EQ(scaled.machine(0).compute_power, 0.1);
  EXPECT_THROW(a.with_battery_scale(0.0), PreconditionError);
}

TEST(GridConfig, RejectsEmptyGrid) {
  EXPECT_THROW(GridConfig(std::vector<MachineSpec>{}), PreconditionError);
  EXPECT_THROW(GridConfig::make(0, 0), PreconditionError);
}

TEST(GridConfig, MachineIdBoundsChecked) {
  const GridConfig a = GridConfig::make_case(GridCase::A);
  EXPECT_THROW(a.machine(4), PreconditionError);
  EXPECT_THROW(a.machine(-1), PreconditionError);
}

// The explicit scan GridConfig::min_bandwidth_bps() stands for.
double scanned_min_bandwidth(const GridConfig& grid) {
  double min_bw = std::numeric_limits<double>::infinity();
  for (const auto& m : grid.machines()) min_bw = std::min(min_bw, m.bandwidth_bps);
  return min_bw;
}

TEST(GridConfig, MinBandwidthMatchesScan) {
  std::vector<GridConfig> grids;
  for (const GridCase c : {GridCase::A, GridCase::B, GridCase::C}) {
    grids.push_back(GridConfig::make_case(c));
  }
  for (const auto& [fast, slow] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 0}, {0, 1}, {7, 0}, {0, 4}, {3, 5}, {64, 448}}) {
    grids.push_back(GridConfig::make(fast, slow));
  }
  // Bandwidths out of id order, the slowest one in the middle.
  std::vector<MachineSpec> mixed;
  for (const double bw : {6e6, 2.5e6, 9e6, 3e6}) {
    MachineSpec spec = fast_machine_spec();
    spec.bandwidth_bps = bw;
    mixed.push_back(spec);
  }
  grids.emplace_back(mixed);
  const std::size_t base = grids.size();
  for (std::size_t i = 0; i < base; ++i) {
    const GridConfig grid = grids[i];
    grids.push_back(grid.with_battery_scale(0.25));
    if (grid.num_machines() < 2) continue;
    for (MachineId id = 0; id < static_cast<MachineId>(grid.num_machines()); ++id) {
      grids.push_back(grid.without_machine(id));
    }
  }
  for (const GridConfig& grid : grids) {
    EXPECT_EQ(grid.min_bandwidth_bps(), scanned_min_bandwidth(grid))
        << grid.num_machines() << " machines";
  }
  // Dropping the slowest machine raises the minimum; dropping another keeps it.
  const GridConfig grid(mixed);
  EXPECT_EQ(grid.min_bandwidth_bps(), 2.5e6);
  EXPECT_EQ(grid.without_machine(1).min_bandwidth_bps(), 3e6);
  EXPECT_EQ(grid.without_machine(2).min_bandwidth_bps(), 2.5e6);
  EXPECT_EQ(GridConfig::make(2, 0).without_machine(0).min_bandwidth_bps(), 8e6);
}

TEST(GridCase, ToString) {
  EXPECT_EQ(to_string(GridCase::A), "Case A");
  EXPECT_EQ(to_string(GridCase::B), "Case B");
  EXPECT_EQ(to_string(GridCase::C), "Case C");
}

}  // namespace
}  // namespace ahg::sim
