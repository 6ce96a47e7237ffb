#include "workload/scenario_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "support/contract.hpp"
#include "tests/byte_mutation.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::workload {
namespace {

Scenario sample() { return test::small_suite_scenario(sim::GridCase::A, 24); }

TEST(ScenarioIo, RoundTripsExactly) {
  const Scenario original = sample();
  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);

  EXPECT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_EQ(loaded.num_machines(), original.num_machines());
  EXPECT_EQ(loaded.tau, original.tau);
  EXPECT_DOUBLE_EQ(loaded.versions.secondary_time_factor,
                   original.versions.secondary_time_factor);
  for (std::size_t j = 0; j < original.num_machines(); ++j) {
    const auto m = static_cast<MachineId>(j);
    EXPECT_EQ(loaded.grid.machine(m).cls, original.grid.machine(m).cls);
    EXPECT_DOUBLE_EQ(loaded.grid.machine(m).battery_capacity,
                     original.grid.machine(m).battery_capacity);
    EXPECT_DOUBLE_EQ(loaded.grid.machine(m).bandwidth_bps,
                     original.grid.machine(m).bandwidth_bps);
  }
  for (std::size_t i = 0; i < original.num_tasks(); ++i) {
    const auto t = static_cast<TaskId>(i);
    for (std::size_t j = 0; j < original.num_machines(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.etc.seconds(t, static_cast<MachineId>(j)),
                       original.etc.seconds(t, static_cast<MachineId>(j)));
    }
    ASSERT_EQ(loaded.dag.children(t).size(), original.dag.children(t).size());
    for (const TaskId c : original.dag.children(t)) {
      EXPECT_TRUE(loaded.dag.has_edge(t, c));
      EXPECT_DOUBLE_EQ(loaded.data.bits(t, c), original.data.bits(t, c));
    }
  }
}

// The loaded grid re-derives its minimum bandwidth from the machine lines.
TEST(ScenarioIo, RoundTripKeepsGridMinimumBandwidth) {
  std::vector<sim::MachineSpec> machines;
  for (const double bw : {6e6, 2.5e6, 9e6}) {
    sim::MachineSpec spec = sim::slow_machine_spec();
    spec.bandwidth_bps = bw;
    machines.push_back(spec);
  }
  const std::vector<std::vector<double>> etc(4, std::vector<double>(3, 10.0));
  for (Scenario original :
       {sample(), test::small_suite_scenario(sim::GridCase::C, 24),
        test::make_scenario(sim::GridConfig(machines), 4, {{0, 1, 1e6}}, etc, 1000)}) {
    std::stringstream buffer;
    write_scenario(buffer, original);
    const Scenario loaded = read_scenario(buffer);
    double scanned = loaded.grid.machine(0).bandwidth_bps;
    for (const auto& m : loaded.grid.machines()) {
      scanned = std::min(scanned, m.bandwidth_bps);
    }
    EXPECT_EQ(loaded.grid.min_bandwidth_bps(), scanned);
    EXPECT_EQ(loaded.grid.min_bandwidth_bps(), original.grid.min_bandwidth_bps());
  }
}

TEST(ScenarioIo, LoadedScenarioValidates) {
  std::stringstream buffer;
  write_scenario(buffer, sample());
  EXPECT_NO_THROW(read_scenario(buffer).validate());
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer;
  write_scenario(buffer, sample());
  const std::string with_noise = "# leading comment\n\n" + buffer.str() + "\n# trailing\n";
  std::istringstream noisy(with_noise);
  EXPECT_NO_THROW(read_scenario(noisy));
}

TEST(ScenarioIo, RejectsMissingHeader) {
  std::istringstream input("machines 1\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsBadMachineClass) {
  std::istringstream input(
      "adhoc-grid-scenario v1\nmachines 1\nmachine quantum 1 1 1 1\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsMissingEtcEntry) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 2\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\n");  // entry for task 1 missing
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsDuplicateEtcEntry) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\netc 0 0 11.0\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsOutOfRangeIndices) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 5 10.0\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsCycle) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 2\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\netc 1 0 10.0\n"
      "edge 0 1 100\nedge 1 0 100\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsUnknownKeyword) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\nfrobnicate 1 2 3\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, ErrorMentionsLineNumber) {
  std::istringstream input("adhoc-grid-scenario v1\nmachines 0\n");
  try {
    read_scenario(input);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// --- hostile header counts -------------------------------------------------

/// A complete header — `machines` machine lines, `tasks`, tau and versions —
/// with no etc lines, so a header the reader accepts reaches the table
/// allocation and then fails on the first missing etc entry.
std::string header(const std::string& machines_count, std::size_t machine_lines,
                   const std::string& tasks_count) {
  std::string text = "adhoc-grid-scenario v1\nmachines " + machines_count + "\n";
  for (std::size_t j = 0; j < machine_lines; ++j) {
    text += "machine fast 580 0.1 0.2 8e6\n";
  }
  return text + "tasks " + tasks_count + "\ntau 100\nversions 0.1 0.1\n";
}

std::string refusal(const std::string& text) {
  std::istringstream input(text);
  try {
    read_scenario(input);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioIo, RefusesHeaderCountsBeyondTheCapsBeforeAllocating) {
  // A negative count once wrapped to SIZE_MAX tasks and reached the ETC
  // allocation (std::length_error rather than a parse error); "12abc" was
  // read as 12.
  EXPECT_NE(refusal(header("1", 1, "-1")).find("line 4"), std::string::npos);
  EXPECT_NE(refusal(header("1", 1, "18446744073709551615")), "");
  EXPECT_NE(refusal(header("1", 1, std::to_string(kMaxScenarioTasks + 1))), "");
  EXPECT_NE(refusal(header("1", 1, "12abc")), "");
  EXPECT_NE(refusal(header("1", 1, "2.5")), "");
  EXPECT_NE(refusal(header("1", 1, "0")), "");
  EXPECT_NE(refusal(header("-1", 0, "1")).find("line 2"), std::string::npos);
  EXPECT_NE(refusal(header(std::to_string(kMaxScenarioMachines + 1), 0, "1")), "");
  // Each count within its cap, the product beyond the ETC cap: refused on
  // the tasks line, naming the product.
  const std::size_t machines = kMaxScenarioEtcEntries / kMaxScenarioTasks * 2;
  const std::string product =
      refusal(header(std::to_string(machines), machines,
                     std::to_string(kMaxScenarioTasks)));
  EXPECT_NE(product.find("ETC entries"), std::string::npos) << product;
  EXPECT_NE(product.find("line " + std::to_string(3 + machines)), std::string::npos)
      << product;
  // A header within the caps is accepted and parsing goes on to the etc
  // entries.
  EXPECT_NE(refusal(header("1", 1, "1")).find("missing etc entry"), std::string::npos);
}

TEST(ScenarioIo, ByteMutantsParseInRangeOrThrowPreconditionError) {
  // A small scenario, so the mutations reach the header counts often.
  const Scenario small = test::make_scenario(
      sim::GridConfig::make(1, 1), 4, {{0, 1, 8e6}, {0, 2, 4e6}, {2, 3, 1e6}},
      {{10.0, 20.0}, {5.0, 9.0}, {7.0, 14.0}, {3.0, 6.0}}, 100000);
  std::ostringstream os;
  write_scenario(os, small);
  const auto tally = test::run_byte_mutations(os.str(), 2000, 0x5CE4A10ull,
                                              [&](std::istream& in) {
    const Scenario loaded = read_scenario(in);
    EXPECT_GE(loaded.num_tasks(), 1u);
    EXPECT_LE(loaded.num_tasks(), kMaxScenarioTasks);
    EXPECT_GE(loaded.num_machines(), 1u);
    EXPECT_LE(loaded.num_machines(), kMaxScenarioMachines);
    EXPECT_LE(loaded.num_tasks() * loaded.num_machines(), kMaxScenarioEtcEntries);
    EXPECT_GT(loaded.tau, 0);
  });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ScenarioIo, FileRoundTrip) {
  const Scenario original = sample();
  const std::string path = ::testing::TempDir() + "/scenario_io_test.scn";
  save_scenario(path, original);
  const Scenario loaded = load_scenario(path);
  EXPECT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_EQ(loaded.tau, original.tau);
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW(load_scenario("/nonexistent/path.scn"), PreconditionError);
}

}  // namespace
}  // namespace ahg::workload
