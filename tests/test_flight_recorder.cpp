// Unit tests for the obs::FlightRecorder ring (bounded memory, drop
// accounting, churn-context stamping, JSONL round-trip) and for the frames a
// real SLRH / Max-Max run produces through it.

#include "support/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/churn.hpp"
#include "core/heuristics.hpp"
#include "core/slrh.hpp"
#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "tests/byte_mutation.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;
using obs::FlightRecorder;
using obs::Frame;

Frame frame_at(Cycles clock) {
  Frame frame;
  frame.heuristic = "SLRH-1";
  frame.clock = clock;
  frame.assigned = static_cast<std::uint64_t>(clock) / 10;
  return frame;
}

TEST(FlightRecorder, RingKeepsNewestAndCountsDrops) {
  FlightRecorder::Options options;
  options.max_frames = 4;
  options.max_spans = 2;
  FlightRecorder recorder(options);

  for (Cycles c = 0; c < 10; ++c) recorder.record(frame_at(c * 10));
  EXPECT_EQ(recorder.frames_recorded(), 10u);
  EXPECT_EQ(recorder.frames_dropped(), 6u);
  const auto frames = recorder.frames();
  ASSERT_EQ(frames.size(), 4u);
  // Oldest-first, tail of the stream.
  EXPECT_EQ(frames.front().clock, 60);
  EXPECT_EQ(frames.back().clock, 90);

  for (int i = 0; i < 5; ++i)
    recorder.add_span("s" + std::to_string(i), i, 0.5);
  EXPECT_EQ(recorder.spans_recorded(), 5u);
  EXPECT_EQ(recorder.spans_dropped(), 3u);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.front().name, "s3");
  EXPECT_EQ(spans.back().name, "s4");
}

TEST(FlightRecorder, SpanRingSurvivesMultipleWraps) {
  // The span ring overwritten many times over: drop accounting must stay
  // exact and the snapshot must remain the newest entries, oldest-first,
  // with no seam at the wrap point.
  FlightRecorder::Options options;
  options.max_frames = 2;
  options.max_spans = 8;
  FlightRecorder recorder(options);

  constexpr int kTotal = 8 * 5 + 3;  // five full wraps plus a partial lap
  for (int i = 0; i < kTotal; ++i) {
    recorder.add_span("s" + std::to_string(i), static_cast<double>(i), 0.25,
                      /*clock=*/i, static_cast<MachineId>(i % 4));
  }
  EXPECT_EQ(recorder.spans_recorded(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(recorder.spans_dropped(), static_cast<std::uint64_t>(kTotal - 8));

  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int expected = kTotal - 8 + static_cast<int>(i);
    EXPECT_EQ(spans[i].name, "s" + std::to_string(expected)) << "slot " << i;
    EXPECT_EQ(spans[i].start_seconds, static_cast<double>(expected));
    EXPECT_EQ(spans[i].clock, expected);
    if (i > 0) {
      EXPECT_LT(spans[i - 1].start_seconds, spans[i].start_seconds)
          << "oldest-first ordering broken at slot " << i;
    }
  }
}

TEST(FlightRecorder, MemoryBoundScalesWithOptionsAndMachines) {
  FlightRecorder::Options small;
  small.max_frames = 8;
  small.max_spans = 8;
  FlightRecorder a(small);
  FlightRecorder b;  // defaults are larger
  EXPECT_LT(a.memory_bound_bytes(4), b.memory_bound_bytes(4));
  EXPECT_LT(a.memory_bound_bytes(4), a.memory_bound_bytes(64));
  EXPECT_GT(a.memory_bound_bytes(4), 0u);
}

TEST(FlightRecorder, ChurnTalliesReachFramesAfterEachRecovery) {
  // The churn tallies are part of the frame the driver builds: zero before
  // the departure is discovered, the run's cumulative outcome after it.
  const auto scenario = test::one_departure_scenario();
  FlightRecorder recorder(FlightRecorder::dense_options());
  core::SlrhParams params;
  params.recorder = &recorder;
  const auto outcome = core::run_slrh_with_churn(scenario, params);
  ASSERT_EQ(outcome.departures_processed, 1u);
  const auto frames = recorder.frames();
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.front().departures, 0u);
  EXPECT_EQ(frames.front().energy_forfeited, 0.0);
  const Frame& last = frames.back();
  EXPECT_EQ(last.departures, 1u);
  EXPECT_EQ(last.orphaned, outcome.orphaned);
  EXPECT_EQ(last.invalidated, outcome.invalidated);
  EXPECT_EQ(last.energy_forfeited, outcome.energy_forfeited);

  // A later run on the same recorder starts from zero again.
  core::run_slrh(scenario, params);
  EXPECT_EQ(recorder.frames().back().departures, 0u);
}

TEST(FlightRecorder, FramesJsonlRoundTripsEveryField) {
  FlightRecorder recorder;
  Frame frame;
  frame.heuristic = "SLRH-3";
  frame.clock = 120;
  frame.wall_seconds = 0.25;
  frame.term_t100 = 0.5;
  frame.term_tec = 0.125;
  frame.term_aet = 0.0625;
  frame.objective = 0.4375;
  frame.assigned = 42;
  frame.t100 = 40;
  frame.tec = 12.75;
  frame.aet = 990;
  frame.pools_built = 3;
  frame.maps = 2;
  frame.last_pool_size = 17;
  frame.frontier_ready = 9;
  frame.frontier_unreleased = 4;
  frame.pool_build_seconds = 1e-4;
  frame.timestep_seconds = 2e-4;
  frame.battery_fraction = {1.0, 0.5, 0.25};
  frame.busy_until = {100, 200, 0};
  frame.departures = 1;
  frame.orphaned = 2;
  frame.invalidated = 3;
  frame.energy_forfeited = 4.5;
  recorder.record(frame);

  std::ostringstream os;
  recorder.write_frames_jsonl(os);
  std::istringstream in(os.str());
  const std::vector<Frame> back = obs::read_frames_jsonl(in);
  ASSERT_EQ(back.size(), 1u);
  const Frame& f = back.front();
  EXPECT_EQ(f.heuristic, frame.heuristic);
  EXPECT_EQ(f.clock, frame.clock);
  EXPECT_DOUBLE_EQ(f.wall_seconds, frame.wall_seconds);
  EXPECT_DOUBLE_EQ(f.term_t100, frame.term_t100);
  EXPECT_DOUBLE_EQ(f.term_tec, frame.term_tec);
  EXPECT_DOUBLE_EQ(f.term_aet, frame.term_aet);
  EXPECT_DOUBLE_EQ(f.objective, frame.objective);
  EXPECT_EQ(f.assigned, frame.assigned);
  EXPECT_EQ(f.t100, frame.t100);
  EXPECT_DOUBLE_EQ(f.tec, frame.tec);
  EXPECT_EQ(f.aet, frame.aet);
  EXPECT_EQ(f.pools_built, frame.pools_built);
  EXPECT_EQ(f.maps, frame.maps);
  EXPECT_EQ(f.last_pool_size, frame.last_pool_size);
  EXPECT_EQ(f.frontier_ready, frame.frontier_ready);
  EXPECT_EQ(f.frontier_unreleased, frame.frontier_unreleased);
  EXPECT_DOUBLE_EQ(f.pool_build_seconds, frame.pool_build_seconds);
  EXPECT_DOUBLE_EQ(f.timestep_seconds, frame.timestep_seconds);
  EXPECT_EQ(f.departures, frame.departures);
  EXPECT_EQ(f.orphaned, frame.orphaned);
  EXPECT_EQ(f.invalidated, frame.invalidated);
  EXPECT_DOUBLE_EQ(f.energy_forfeited, frame.energy_forfeited);
  EXPECT_EQ(f.battery_fraction, frame.battery_fraction);
  EXPECT_EQ(f.busy_until, frame.busy_until);

  // Recordings from builds that still had the speculative sweep carry
  // "spec_aborts" and "sweep_seconds"; like any unknown key they are ignored.
  EXPECT_EQ(obs::frame_from_json(obs::parse_json(
                R"({"clock":10,"pools":2,"spec_aborts":3,"sweep_seconds":0.5})"))
                .pools_built,
            2u);
}

Frame frame_from_text(const std::string& text) {
  return obs::frame_from_json(obs::parse_json(text));
}

TEST(FlightRecorder, FramesJsonlRejectsGarbledCounts) {
  const char* const fields[] = {"assigned", "t100",       "pools",      "maps",
                                "pool_size", "reused",    "ready",      "unreleased",
                                "departures", "orphaned", "invalidated", "clock",
                                "aet"};
  // Negative, fractional, beyond 2^53 (no longer exact as a double), and
  // not a number at all.
  const char* const garbled[] = {"-5", "2.5", "1e300", "18014398509481984",
                                 "\"7\"", "null", "true", "[1]"};
  for (const char* field : fields) {
    for (const char* value : garbled) {
      const std::string text =
          std::string(R"({"heuristic":"SLRH-1",")") + field + "\":" + value + "}";
      SCOPED_TRACE(text);
      try {
        frame_from_text(text);
        ADD_FAILURE() << "garbled count parsed";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
    // The edges of the accepted range still parse.
    const std::string edge = std::string("{\"") + field + "\":9007199254740992}";
    EXPECT_NO_THROW(frame_from_text(edge)) << edge;
  }
  EXPECT_THROW(frame_from_text(R"({"busy_until":[10,-1]})"), PreconditionError);
  EXPECT_THROW(frame_from_text(R"({"busy_until":[0.5]})"), PreconditionError);

  // Absent fields keep their defaults.
  const Frame sparse = frame_from_text(R"({"heuristic":"SLRH-2","clock":30})");
  EXPECT_EQ(sparse.heuristic, "SLRH-2");
  EXPECT_EQ(sparse.clock, 30);
  EXPECT_EQ(sparse.assigned, 0u);
  EXPECT_EQ(sparse.aet, 0);
  EXPECT_TRUE(sparse.busy_until.empty());
}

workload::Scenario small_scenario() {
  workload::SuiteParams params;
  params.num_tasks = 64;
  params.num_etc = 1;
  params.num_dag = 1;
  const workload::ScenarioSuite suite(params);
  return suite.make(sim::GridCase::A, 0, 0);
}

class FlightRecorderRunTest : public ::testing::Test {
 protected:
  static workload::Scenario make_scenario() { return small_scenario(); }
};

TEST_F(FlightRecorderRunTest, SlrhRunProducesCoherentFrames) {
  const auto scenario = make_scenario();
  FlightRecorder recorder(FlightRecorder::dense_options());
  core::SlrhParams params;
  params.recorder = &recorder;
  const auto result = core::run_slrh(scenario, params);

  const auto frames = recorder.frames();
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(recorder.frames_dropped(), 0u);  // dense ring holds a small run

  Cycles prev_clock = -1;
  std::uint64_t prev_assigned = 0;
  std::uint64_t maps_total = 0;
  for (const Frame& f : frames) {
    EXPECT_EQ(f.heuristic, "SLRH-1");
    EXPECT_GT(f.clock, prev_clock);  // strictly advancing sample times
    prev_clock = f.clock;
    EXPECT_GE(f.assigned, prev_assigned);  // progress is monotone
    prev_assigned = f.assigned;
    EXPECT_GE(f.assigned, f.t100);
    EXPECT_EQ(f.battery_fraction.size(), scenario.grid.machines().size());
    EXPECT_EQ(f.busy_until.size(), scenario.grid.machines().size());
    for (const double b : f.battery_fraction) {
      EXPECT_GE(b, 0.0);
      EXPECT_LE(b, 1.0);
    }
    EXPECT_EQ(f.departures, 0u);  // churn-free run
    maps_total += f.maps;
  }
  // Dense sampling sees every commit: per-frame map counts add up to the
  // run's assignment total, and the final frame agrees with the result.
  EXPECT_EQ(maps_total, static_cast<std::uint64_t>(result.assigned));
  EXPECT_EQ(frames.back().assigned, static_cast<std::uint64_t>(result.assigned));
  EXPECT_EQ(frames.back().t100, static_cast<std::uint64_t>(result.t100));
  EXPECT_DOUBLE_EQ(frames.back().tec, result.tec);

  // The run emits pool-build spans plus one whole-run span.
  const auto spans = recorder.spans();
  ASSERT_FALSE(spans.empty());
  bool saw_run = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.duration_seconds, 0.0);
    if (s.name.rfind("run:", 0) == 0) saw_run = true;
  }
  EXPECT_TRUE(saw_run);
}

TEST(FlightRecorder, FramesJsonlSurvivesByteMutation) {
  // A recorded frames file with random byte edits (overwrite, insert,
  // delete): each mutant either parses into frames whose counts are in
  // range, or throws PreconditionError — never garbage, never another
  // exception, never a crash.
  const auto scenario = small_scenario();
  FlightRecorder recorder(FlightRecorder::dense_options());
  core::SlrhParams params;
  params.recorder = &recorder;
  core::run_slrh(scenario, params);
  const auto frames = recorder.frames();
  ASSERT_GE(frames.size(), 4u);
  std::ostringstream os;
  for (std::size_t i = 0; i < 4; ++i) {  // a few frames keep 2000 runs quick
    obs::write_frame_json(os, frames[i * (frames.size() - 1) / 3]);
    os << "\n";
  }
  constexpr std::uint64_t kMaxExact = std::uint64_t{1} << 53;
  const auto tally = test::run_byte_mutations(os.str(), 2000, 0xF4A3E5ull,
                                              [&](std::istream& in) {
    for (const Frame& f : obs::read_frames_jsonl(in)) {
      EXPECT_GE(f.clock, 0);
      EXPECT_GE(f.aet, 0);
      EXPECT_LE(f.assigned, kMaxExact);
      EXPECT_LE(f.pools_built, kMaxExact);
      for (const Cycles c : f.busy_until) EXPECT_GE(c, 0);
    }
  });
  // Both outcomes occur: the mutations reach numbers and structure alike.
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST_F(FlightRecorderRunTest, IdleStrideDecimatesOnlyIdleTicks) {
  const auto scenario = make_scenario();

  FlightRecorder dense(FlightRecorder::dense_options());
  core::SlrhParams params;
  params.recorder = &dense;
  core::run_slrh(scenario, params);

  FlightRecorder::Options sparse_options = FlightRecorder::dense_options();
  sparse_options.idle_stride = 1 << 20;  // commit ticks only
  FlightRecorder sparse(sparse_options);
  params.recorder = &sparse;
  core::run_slrh(scenario, params);

  EXPECT_LT(sparse.frames_recorded(), dense.frames_recorded());
  // Every committing tick survives decimation with identical content.
  std::vector<Frame> dense_commits;
  for (const Frame& f : dense.frames())
    if (f.maps > 0) dense_commits.push_back(f);
  std::vector<Frame> sparse_commits;
  for (const Frame& f : sparse.frames())
    if (f.maps > 0) sparse_commits.push_back(f);
  ASSERT_EQ(sparse_commits.size(), dense_commits.size());
  for (std::size_t i = 0; i < dense_commits.size(); ++i) {
    EXPECT_EQ(sparse_commits[i].clock, dense_commits[i].clock);
    EXPECT_EQ(sparse_commits[i].assigned, dense_commits[i].assigned);
    EXPECT_EQ(sparse_commits[i].maps, dense_commits[i].maps);
  }
}

TEST_F(FlightRecorderRunTest, MaxMaxRecordsOneFramePerRound) {
  const auto scenario = make_scenario();
  FlightRecorder recorder(FlightRecorder::dense_options());
  const auto result = core::run_heuristic(
      core::HeuristicKind::MaxMax, scenario, core::Weights::make(0.5, 0.1), {},
      core::AetSign::Reward, nullptr, nullptr, &recorder);

  const auto frames = recorder.frames();
  ASSERT_FALSE(frames.empty());
  // Max-Max maps exactly one subtask per round; clock carries the 1-based
  // round index (matching the decision event stream).
  EXPECT_EQ(frames.size(), static_cast<std::size_t>(result.assigned));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].heuristic, "Max-Max");
    EXPECT_EQ(frames[i].clock, static_cast<Cycles>(i + 1));
    EXPECT_EQ(frames[i].maps, 1u);
    EXPECT_EQ(frames[i].assigned, i + 1);
  }
  EXPECT_EQ(frames.back().t100, static_cast<std::uint64_t>(result.t100));
}

}  // namespace
