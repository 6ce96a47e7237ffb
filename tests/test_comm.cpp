#include "sim/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/grid.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"

namespace ahg::sim {
namespace {

TEST(Comm, CmtUsesSlowerEndpoint) {
  const MachineSpec fast = fast_machine_spec();  // 8 Mbit/s
  const MachineSpec slow = slow_machine_spec();  // 4 Mbit/s
  EXPECT_DOUBLE_EQ(cmt_seconds_per_bit(fast, fast), 1.0 / 8e6);
  EXPECT_DOUBLE_EQ(cmt_seconds_per_bit(fast, slow), 1.0 / 4e6);
  EXPECT_DOUBLE_EQ(cmt_seconds_per_bit(slow, fast), 1.0 / 4e6);
  EXPECT_DOUBLE_EQ(cmt_seconds_per_bit(slow, slow), 1.0 / 4e6);
}

TEST(Comm, TransferCyclesCeil) {
  const MachineSpec fast = fast_machine_spec();
  // 8e6 bits over 8 Mbit/s = 1 s = 10 cycles.
  EXPECT_EQ(transfer_cycles(8e6, fast, fast), 10);
  // A hair more data must round up.
  EXPECT_EQ(transfer_cycles(8e6 + 1, fast, fast), 11);
}

TEST(Comm, ZeroBitsTakeZeroCycles) {
  const MachineSpec fast = fast_machine_spec();
  EXPECT_EQ(transfer_cycles(0.0, fast, fast), 0);
}

TEST(Comm, TinyTransferTakesAtLeastOneCycle) {
  const MachineSpec fast = fast_machine_spec();
  EXPECT_EQ(transfer_cycles(1.0, fast, fast), 1);
}

TEST(Comm, RejectsNegativeBits) {
  const MachineSpec fast = fast_machine_spec();
  EXPECT_THROW(transfer_cycles(-1.0, fast, fast), PreconditionError);
}

TEST(Comm, TransferEnergyChargesSenderRate) {
  const MachineSpec fast = fast_machine_spec();
  const MachineSpec slow = slow_machine_spec();
  EXPECT_DOUBLE_EQ(transfer_energy(fast, 10), 0.2);   // 1 s * 0.2 u/s
  EXPECT_DOUBLE_EQ(transfer_energy(slow, 10), 0.002); // 1 s * 0.002 u/s
  EXPECT_THROW(transfer_energy(fast, -1), PreconditionError);
}

TEST(Comm, WorstCaseUsesGridMinimumBandwidth) {
  const GridConfig grid = GridConfig::make_case(GridCase::A);  // min BW 4 Mbit/s
  // 4e6 bits at 4 Mbit/s = 1 s = 10 cycles even from a fast sender.
  EXPECT_EQ(worst_case_transfer_cycles(4e6, grid), 10);
  EXPECT_EQ(worst_case_transfer_cycles(0.0, grid), 0);
  EXPECT_THROW(worst_case_transfer_cycles(-1.0, grid), PreconditionError);
}

TEST(Comm, WorstCaseInFastOnlyGridUsesFastBandwidth) {
  const GridConfig grid = GridConfig::make(2, 0);
  EXPECT_EQ(worst_case_transfer_cycles(8e6, grid), 10);
}

// Property: the worst case never underestimates the actual transfer, for any
// receiver in the grid and any data volume.
class WorstCaseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorstCaseProperty, DominatesActualTransfer) {
  Rng rng(GetParam());
  const GridConfig grid = GridConfig::make_case(GridCase::A);
  for (int k = 0; k < 500; ++k) {
    const double bits = rng.uniform(0.0, 2e7);
    const auto sender = static_cast<MachineId>(rng.uniform_int(0, 3));
    const auto receiver = static_cast<MachineId>(rng.uniform_int(0, 3));
    const Cycles actual =
        transfer_cycles(bits, grid.machine(sender), grid.machine(receiver));
    const Cycles worst = worst_case_transfer_cycles(bits, grid);
    ASSERT_LE(actual, worst) << "bits=" << bits << " s=" << sender << " r=" << receiver;
    // Energy comparison follows because both are charged at the sender rate.
    ASSERT_LE(transfer_energy(grid.machine(sender), actual),
              transfer_energy(grid.machine(sender), worst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorstCaseProperty, ::testing::Values(1u, 2u, 3u));

// The per-call scan worst_case_transfer_cycles ran before the grid kept its
// minimum bandwidth: the sender's bandwidth, lowered by every machine's.
Cycles scanned_worst_case_cycles(double bits, const MachineSpec& sender,
                                 const GridConfig& grid) {
  if (bits == 0.0) return 0;
  double min_bw = sender.bandwidth_bps;
  for (const auto& machine : grid.machines()) {
    min_bw = std::min(min_bw, machine.bandwidth_bps);
  }
  const Cycles c = cycles_from_seconds(bits / min_bw);
  return c > 0 ? c : 1;
}

// Property: the grid-minimum form equals the scan bit for bit, from every
// sender in the grid — over random grids with random bandwidths and volumes
// from zero through sub-cycle to large.
class WorstCaseScanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorstCaseScanProperty, MatchesPerCallScan) {
  Rng rng(GetParam());
  for (int g = 0; g < 50; ++g) {
    std::vector<MachineSpec> machines;
    const auto n = rng.uniform_int(1, 9);
    for (std::int64_t j = 0; j < n; ++j) {
      MachineSpec spec = rng.uniform_int(0, 1) == 0 ? fast_machine_spec()
                                                    : slow_machine_spec();
      spec.bandwidth_bps = rng.uniform(1e5, 1e7);
      machines.push_back(spec);
    }
    const GridConfig grid(machines);
    for (int k = 0; k < 40; ++k) {
      const double bits = k == 0   ? 0.0
                          : k == 1 ? rng.uniform(0.0, 1e3)
                                   : rng.uniform(0.0, 5e7);
      for (const auto& sender : grid.machines()) {
        ASSERT_EQ(worst_case_transfer_cycles(bits, grid),
                  scanned_worst_case_cycles(bits, sender, grid))
            << "bits=" << bits << " sender bw=" << sender.bandwidth_bps;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorstCaseScanProperty, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace ahg::sim
