// Golden schedule digests: today's schedules, frozen.
//
// Every row runs one heuristic on one fixture and hashes the resulting
// schedule with FNV-1a: each subtask's assignment (machine, version, start,
// finish, energy by bit pattern — or an "unassigned" marker), every
// communication event in record order, and the t100/aet/tec bits. The
// committed table below was generated while the since-deleted diff-oracle
// paths (a full-scan pool builder, a per-candidate scoring pool builder and
// Max-Max's uncached derivations) still existed, and every row was asserted
// identical across all of them at that point. Any change to the pool builder,
// the scoring kernel, placement, the timelines or churn recovery that moves
// a single decision or a single energy bit changes a digest and fails here.
// A failure prints the actual digest next to the row name. Update the table
// only for a change that is MEANT to alter schedules, and say so in the
// change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "core/churn.hpp"
#include "core/maxmax.hpp"
#include "core/slrh.hpp"
#include "support/thread_pool.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg {
namespace {

// Pin the process-wide pool to four workers before anything builds it, so
// the parallel scenario-cache build is the path being frozen on every host.
[[maybe_unused]] const bool kForceParallelPool = [] {
  configure_global_pool(4);
  return true;
}();

class Fnv1a {
 public:
  template <typename T>
  void mix(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t schedule_digest(const core::MappingResult& result) {
  Fnv1a h;
  const sim::Schedule& schedule = *result.schedule;
  h.mix(static_cast<std::uint64_t>(schedule.num_tasks()));
  for (TaskId t = 0; t < static_cast<TaskId>(schedule.num_tasks()); ++t) {
    if (!schedule.is_assigned(t)) {
      h.mix(std::int32_t{-1});
      continue;
    }
    const sim::Assignment& a = schedule.assignment(t);
    h.mix(a.machine);
    h.mix(static_cast<std::uint8_t>(a.version));
    h.mix(a.start);
    h.mix(a.finish);
    h.mix(a.energy);
  }
  for (const sim::CommEvent& c : schedule.comm_events()) {
    h.mix(c.from_task);
    h.mix(c.to_task);
    h.mix(c.from_machine);
    h.mix(c.to_machine);
    h.mix(c.start);
    h.mix(c.finish);
    h.mix(c.bits);
    h.mix(c.energy);
  }
  h.mix(static_cast<std::uint64_t>(result.t100));
  h.mix(result.aet);
  h.mix(result.tec);
  return h.value();
}

std::string hex(std::uint64_t digest) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << digest;
  return os.str();
}

const char* const kFixtureNames[] = {"A48", "B48", "C48", "A64-released"};

// Row name -> committed digest.
const std::map<std::string, std::uint64_t> kGolden = {
    {"SLRH-1/A48", 0x3aae6668074c812full},
    {"SLRH-2/A48", 0x02ce3dd7238f2beeull},
    {"SLRH-3/A48", 0x87da82c88177a755ull},
    {"Max-Max/A48", 0xea257726f18b5888ull},
    {"SLRH-1/B48", 0x74144de8725e90a8ull},
    {"SLRH-2/B48", 0x5bc0029842809715ull},
    {"SLRH-3/B48", 0xce2546b8eaa9e226ull},
    {"Max-Max/B48", 0xa3748efde869a965ull},
    {"SLRH-1/C48", 0x43171a3956284302ull},
    {"SLRH-2/C48", 0x51f5670d090d118full},
    {"SLRH-3/C48", 0x2ea0316f40f96fa4ull},
    {"Max-Max/C48", 0xd2dd909d4e4cae01ull},
    {"SLRH-1/A64-released", 0xc4f7bc4ee70ed138ull},
    {"SLRH-2/A64-released", 0x3db59f790c3407eeull},
    {"SLRH-3/A64-released", 0x0171fb41ad7a3756ull},
    {"Max-Max/A64-released", 0x0ad30c100c9be0d2ull},
    {"SLRH-1/churn-remap", 0x6d7017224cbdc896ull},
    {"SLRH-1/churn-degrade", 0x2ff4cc5b35416914ull},
    {"SLRH-3/churn-remap", 0xcc7b0278ccd9815bull},
    {"SLRH-3/churn-degrade", 0xa8d4be87fef5328full},
};

core::SlrhParams slrh_params(core::SlrhVariant variant) {
  core::SlrhParams params;
  params.variant = variant;
  params.weights = core::Weights::make(0.6, 0.3);
  return params;
}

void expect_golden(const std::string& row, std::uint64_t actual) {
  const auto it = kGolden.find(row);
  if (it == kGolden.end()) {
    ADD_FAILURE() << row << ": no committed digest; actual " << hex(actual);
    return;
  }
  EXPECT_EQ(actual, it->second) << row << ": actual digest " << hex(actual)
                                << ", committed " << hex(it->second);
}

TEST(GoldenSchedules, PaperFixtures) {
  const auto fixtures = test::paper_shape_fixtures();
  ASSERT_EQ(fixtures.size(), std::size(kFixtureNames));
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const workload::Scenario& scenario = fixtures[f];
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      expect_golden(core::to_string(variant) + "/" + kFixtureNames[f],
                    schedule_digest(core::run_slrh(scenario, slrh_params(variant))));
    }
    core::MaxMaxParams maxmax;
    maxmax.weights = core::Weights::make(0.6, 0.3);
    expect_golden(std::string("Max-Max/") + kFixtureNames[f],
                  schedule_digest(core::run_maxmax(scenario, maxmax)));
  }
}

TEST(GoldenSchedules, TableHasOneRowPerFixtureRun) {
  // {SLRH-1,2,3, Max-Max} x 4 paper fixtures + {SLRH-1,3} x {Remap, Degrade}.
  EXPECT_EQ(kGolden.size(), 4u * 4u + 2u * 2u);
}

TEST(GoldenSchedules, OneDepartureChurn) {
  const auto scenario = test::one_departure_scenario();
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    for (const auto recovery :
         {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
      const auto outcome =
          core::run_slrh_with_churn(scenario, slrh_params(variant), recovery);
      ASSERT_GT(outcome.departures_processed, 0u);
      expect_golden(core::to_string(variant) + "/churn-" +
                        (recovery == core::ChurnRecovery::Remap ? "remap"
                                                                : "degrade"),
                    schedule_digest(outcome.result));
    }
  }
}

}  // namespace
}  // namespace ahg
