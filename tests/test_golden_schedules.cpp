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
//
// A second table, kGoldenObservations, freezes what the observation backends
// record on the same runs with every one of them attached: the decision
// events, the flight-recorder frames and spans, the task ledger's spans and
// a fixed list of metrics counters and histograms. Wall-clock fields are
// zeroed or left out; everything else is hashed. Changing how observation is
// wired must keep these digests; changing an event, frame or ledger format
// is meant to move them. Adding a counter or histogram moves no row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/adaptive.hpp"
#include "core/churn.hpp"
#include "core/maxmax.hpp"
#include "core/slrh.hpp"
#include "support/event_log.hpp"
#include "support/flight_recorder.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"
#include "support/task_ledger.hpp"
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
  void mix_bytes(std::string_view bytes) {
    mix(static_cast<std::uint64_t>(bytes.size()));
    for (const char c : bytes) mix(c);
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

void expect_golden(const std::string& row, std::uint64_t actual,
                   const std::map<std::string, std::uint64_t>& table = kGolden) {
  const auto it = table.find(row);
  if (it == table.end()) {
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

// --- mid-run machine loss ---------------------------------------------------

// Row name -> committed digest of run_slrh_with_loss's degraded-grid
// schedule: Cases A/B/C at |T|=48 x {machine 1 lost at tau/4, machine 2 at
// tau/2} x SLRH-1/3 x adaptation off/on. Kept apart from kGolden: the loss
// driver takes no observers, so these rows have no kGoldenObservations
// counterpart. In the four SLRH-3 rows that lose machine 1 at tau/4 on A48
// and B48, a kept task's worst-case output hold no longer fits its machine's
// battery, so the replay discards that task too.
const std::map<std::string, std::uint64_t> kGoldenLoss = {
    {"SLRH-1/A48/lose-m1@tau/4/frozen", 0x3a9c1ff8359a562full},
    {"SLRH-1/A48/lose-m1@tau/4/adapted", 0x1eeb42c088d4b6aeull},
    {"SLRH-3/A48/lose-m1@tau/4/frozen", 0xe704033473cb140eull},
    {"SLRH-3/A48/lose-m1@tau/4/adapted", 0x9233cfeb04f2301cull},
    {"SLRH-1/A48/lose-m2@tau/2/frozen", 0x782f20cea6684c69ull},
    {"SLRH-1/A48/lose-m2@tau/2/adapted", 0x782f20cea6684c69ull},
    {"SLRH-3/A48/lose-m2@tau/2/frozen", 0x29c745cb0cb84e6dull},
    {"SLRH-3/A48/lose-m2@tau/2/adapted", 0x29c745cb0cb84e6dull},
    {"SLRH-1/B48/lose-m1@tau/4/frozen", 0x6e4831e88a0f2ddfull},
    {"SLRH-1/B48/lose-m1@tau/4/adapted", 0x7580c1a62fb4f872ull},
    {"SLRH-3/B48/lose-m1@tau/4/frozen", 0x27999c6eae0add39ull},
    {"SLRH-3/B48/lose-m1@tau/4/adapted", 0x5b9f2982cad5e41aull},
    {"SLRH-1/B48/lose-m2@tau/2/frozen", 0xa7e663671ae69e0cull},
    {"SLRH-1/B48/lose-m2@tau/2/adapted", 0xa7e663671ae69e0cull},
    {"SLRH-3/B48/lose-m2@tau/2/frozen", 0xa38146f1ce98150full},
    {"SLRH-3/B48/lose-m2@tau/2/adapted", 0xa38146f1ce98150full},
    {"SLRH-1/C48/lose-m1@tau/4/frozen", 0xc787d0e4daed93dcull},
    {"SLRH-1/C48/lose-m1@tau/4/adapted", 0xc787d0e4daed93dcull},
    {"SLRH-3/C48/lose-m1@tau/4/frozen", 0x23fdf101c4e9f365ull},
    {"SLRH-3/C48/lose-m1@tau/4/adapted", 0xa3d92a1c40763448ull},
    {"SLRH-1/C48/lose-m2@tau/2/frozen", 0x921b0d0bd092d83eull},
    {"SLRH-1/C48/lose-m2@tau/2/adapted", 0x921b0d0bd092d83eull},
    {"SLRH-3/C48/lose-m2@tau/2/frozen", 0xe8742cb3e825424eull},
    {"SLRH-3/C48/lose-m2@tau/2/adapted", 0xe8742cb3e825424eull},
};

TEST(GoldenSchedules, MachineLoss) {
  const auto fixtures = test::paper_shape_fixtures();
  std::size_t rows = 0;
  for (std::size_t f = 0; f < 3; ++f) {  // A48, B48, C48
    const workload::Scenario& scenario = fixtures[f];
    for (const auto& [machine, divisor] : {std::pair{1, 4}, std::pair{2, 2}}) {
      core::MachineLossEvent event;
      event.machine = machine;
      event.time = scenario.tau / divisor;
      for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
        for (const bool adapt : {false, true}) {
          const std::string row = core::to_string(variant) + "/" + kFixtureNames[f] +
                                  "/lose-m" + std::to_string(machine) + "@tau/" +
                                  std::to_string(divisor) +
                                  (adapt ? "/adapted" : "/frozen");
          const auto outcome = core::run_slrh_with_loss(
              scenario, core::Weights::make(0.6, 0.3), event, variant, {}, adapt);
          expect_golden(row, schedule_digest(outcome.result), kGoldenLoss);
          ++rows;
        }
      }
    }
  }
  EXPECT_EQ(rows, kGoldenLoss.size());
}

// --- observation streams ---------------------------------------------------

// Row name -> committed digest of everything the observers recorded.
const std::map<std::string, std::uint64_t> kGoldenObservations = {
    {"SLRH-1/A48", 0x32913ac86f98a1d9ull},
    {"SLRH-2/A48", 0x84b438354b94c345ull},
    {"SLRH-3/A48", 0x85716395d493bc82ull},
    {"Max-Max/A48", 0x8e780228465a5265ull},
    {"SLRH-1/B48", 0xba03140e2fdd47e3ull},
    {"SLRH-2/B48", 0x147dd3c07198321bull},
    {"SLRH-3/B48", 0xf2ea9f3f32468d03ull},
    {"Max-Max/B48", 0x03306d0c88768b19ull},
    {"SLRH-1/C48", 0x746a08004c4a78d8ull},
    {"SLRH-2/C48", 0x59bb48bd77b6e40dull},
    {"SLRH-3/C48", 0xe4caf079adb88162ull},
    {"Max-Max/C48", 0xfddfb6c17ec99960ull},
    {"SLRH-1/A64-released", 0x316cf41dfa2ccf78ull},
    {"SLRH-2/A64-released", 0xf6c2e37731c73156ull},
    {"SLRH-3/A64-released", 0x6e4623b1e9fa0dbeull},
    {"Max-Max/A64-released", 0x21fbb28753abc103ull},
    {"SLRH-1/churn-remap", 0x7ae7cfdd0d9f2905ull},
    {"SLRH-1/churn-degrade", 0x25e5612a84a58ba8ull},
    {"SLRH-3/churn-remap", 0xdf91596c6fa881c9ull},
    {"SLRH-3/churn-degrade", 0x56416f64c60162f0ull},
};

/// The metrics names a row's digest covers, sorted (the registry's order, so
/// the digests equal those of hashing every name these rows emit). A
/// counter or histogram missing from these lists is not hashed.
constexpr std::string_view kDigestedCounters[] = {
    "maxmax.entries_priced", "maxmax.map_decisions",   "maxmax.rounds",
    "slrh.map_decisions",    "slrh.pool_reuse_hits",   "slrh.pool_reuse_misses",
    "slrh.pools_built",      "slrh.timesteps",
};
constexpr std::string_view kDigestedHistograms[] = {
    "maxmax.select_seconds",  "slrh.earliest_start_seconds",
    "slrh.placement_seconds", "slrh.pool_build_seconds",
    "slrh.scoring_seconds",
};

/// Every observation backend a driver accepts, attached at once (the live
/// heartbeat is left out: it only mirrors the clock into a file).
struct Observers {
  obs::MetricsRegistry metrics;
  obs::CollectSink sink{&metrics};
  obs::FlightRecorder recorder{obs::FlightRecorder::dense_options()};
  obs::TaskLedger ledger;

  explicit Observers(const workload::Scenario& scenario)
      : ledger(scenario.num_tasks()) {}

  template <typename Params>
  Params attach(Params params) {
    params.sink = &sink;
    params.recorder = &recorder;
    params.ledger = &ledger;
    return params;
  }

  /// Events in order (JSON, wall time zeroed), frames (JSON, the three wall
  /// times zeroed), span names with their clock and machine, the ledger's
  /// spans file, and the digested counters' names and values and digested
  /// histograms' names that this row emits. Each stream must be non-empty,
  /// so no row hashes an absent stream.
  std::uint64_t digest() const {
    Fnv1a h;
    const std::vector<obs::Event> events = sink.events();
    EXPECT_FALSE(events.empty());
    h.mix(static_cast<std::uint64_t>(events.size()));
    for (obs::Event event : events) {
      event.wall_seconds = 0.0;
      obs::JsonWriter json;
      event.write_json(json);
      h.mix_bytes(json.str());
    }
    const std::vector<obs::Frame> frames = recorder.frames();
    EXPECT_FALSE(frames.empty());
    h.mix(static_cast<std::uint64_t>(frames.size()));
    for (obs::Frame frame : frames) {
      frame.wall_seconds = 0.0;
      frame.timestep_seconds = 0.0;
      frame.pool_build_seconds = 0.0;
      std::ostringstream os;
      obs::write_frame_json(os, frame);
      h.mix_bytes(os.str());
    }
    const std::vector<obs::Span> spans = recorder.spans();
    EXPECT_FALSE(spans.empty());
    h.mix(static_cast<std::uint64_t>(spans.size()));
    for (const obs::Span& span : spans) {
      h.mix_bytes(span.name);
      h.mix(span.clock);
      h.mix(span.machine);
    }
    std::ostringstream ledger_spans;
    ledger.write_spans_jsonl(ledger_spans);
    EXPECT_FALSE(ledger_spans.str().empty());
    h.mix_bytes(ledger_spans.str());
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    bool any_counter = false;
    for (const std::string_view name : kDigestedCounters) {
      if (const obs::CounterSnapshot* counter = snapshot.find_counter(name)) {
        any_counter = true;
        h.mix_bytes(name);
        h.mix(counter->value);
      }
    }
    EXPECT_TRUE(any_counter);
    for (const std::string_view name : kDigestedHistograms) {
      if (snapshot.find_histogram(name) != nullptr) h.mix_bytes(name);
    }
    return h.value();
  }
};

void expect_golden_observations(const std::string& row, std::uint64_t actual) {
  const auto it = kGoldenObservations.find(row);
  if (it == kGoldenObservations.end()) {
    ADD_FAILURE() << row << ": no committed observation digest; actual "
                  << hex(actual);
    return;
  }
  EXPECT_EQ(actual, it->second) << row << ": actual observation digest "
                                << hex(actual) << ", committed " << hex(it->second);
}

/// Run the paper-fixture rows with every observer attached, calling
/// `check(row, schedule digest, observers)` after each.
template <typename Check>
void observe_paper_rows(Check check) {
  const auto fixtures = test::paper_shape_fixtures();
  ASSERT_EQ(fixtures.size(), std::size(kFixtureNames));
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const workload::Scenario& scenario = fixtures[f];
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      Observers observers(scenario);
      const auto result =
          core::run_slrh(scenario, observers.attach(slrh_params(variant)));
      check(core::to_string(variant) + "/" + kFixtureNames[f],
            schedule_digest(result), observers);
    }
    core::MaxMaxParams maxmax;
    maxmax.weights = core::Weights::make(0.6, 0.3);
    Observers observers(scenario);
    const auto result = core::run_maxmax(scenario, observers.attach(maxmax));
    check(std::string("Max-Max/") + kFixtureNames[f], schedule_digest(result),
          observers);
  }
}

/// The one-departure churn rows, as observe_paper_rows.
template <typename Check>
void observe_churn_rows(Check check) {
  const auto scenario = test::one_departure_scenario();
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    for (const auto recovery :
         {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
      Observers observers(scenario);
      const auto outcome = core::run_slrh_with_churn(
          scenario, observers.attach(slrh_params(variant)), recovery);
      ASSERT_GT(outcome.departures_processed, 0u);
      check(core::to_string(variant) + "/churn-" +
                (recovery == core::ChurnRecovery::Remap ? "remap" : "degrade"),
            schedule_digest(outcome.result), observers);
    }
  }
}

void expect_golden_row(const std::string& row, std::uint64_t schedule,
                       const Observers& observers) {
  expect_golden(row, schedule);  // observing changes nothing
  expect_golden_observations(row, observers.digest());
}

TEST(GoldenObservations, PaperFixtures) { observe_paper_rows(expect_golden_row); }

TEST(GoldenObservations, OneDepartureChurn) { observe_churn_rows(expect_golden_row); }

TEST(GoldenObservations, EveryDigestedNameIsEmitted) {
  // A listed name no row emits hashes nothing: a renamed counter would drop
  // out of every digest unseen.
  ASSERT_TRUE(std::is_sorted(std::begin(kDigestedCounters), std::end(kDigestedCounters)));
  ASSERT_TRUE(
      std::is_sorted(std::begin(kDigestedHistograms), std::end(kDigestedHistograms)));
  std::set<std::string, std::less<>> counters;
  std::set<std::string, std::less<>> histograms;
  const auto collect = [&](const std::string&, std::uint64_t, const Observers& observers) {
    const obs::MetricsSnapshot snapshot = observers.metrics.snapshot();
    for (const obs::CounterSnapshot& c : snapshot.counters) counters.insert(c.name);
    for (const obs::HistogramSnapshot& h : snapshot.histograms) histograms.insert(h.name);
  };
  observe_paper_rows(collect);
  observe_churn_rows(collect);
  for (const std::string_view name : kDigestedCounters) {
    EXPECT_TRUE(counters.contains(name)) << "counter " << name << " is in no row";
  }
  for (const std::string_view name : kDigestedHistograms) {
    EXPECT_TRUE(histograms.contains(name)) << "histogram " << name << " is in no row";
  }
}

TEST(GoldenObservations, TableMatchesTheScheduleTable) {
  ASSERT_EQ(kGoldenObservations.size(), kGolden.size());
  for (const auto& [row, digest] : kGolden) {
    EXPECT_TRUE(kGoldenObservations.contains(row)) << row;
  }
}

}  // namespace
}  // namespace ahg
