// Unit tests for the decision-event log: JSONL serialization round-trips,
// sink filtering, SLRH/Max-Max emission contracts (one map event per
// assignment, with the objective-term breakdown), and the determinism guard
// — attaching a sink must not change a single scheduling decision.

#include "support/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/maxmax.hpp"
#include "core/slrh.hpp"
#include "core/tuner.hpp"
#include "support/jsonl.hpp"
#include "tests/scenario_fixtures.hpp"

namespace {

using namespace ahg;

core::SlrhParams slrh_params(obs::Sink* sink = nullptr) {
  core::SlrhParams params;
  params.weights = core::Weights::make(0.6, 0.3);
  params.sink = sink;
  return params;
}

/// Field-by-field schedule equality: the bit-identical determinism contract.
void expect_identical_schedules(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.num_assigned(), b.num_assigned());
  ASSERT_EQ(a.assignment_order().size(), b.assignment_order().size());
  for (std::size_t k = 0; k < a.assignment_order().size(); ++k) {
    const TaskId task = a.assignment_order()[k];
    ASSERT_EQ(task, b.assignment_order()[k]) << "assignment order diverged at " << k;
    const auto& aa = a.assignment(task);
    const auto& ba = b.assignment(task);
    EXPECT_EQ(aa.machine, ba.machine) << "task " << task;
    EXPECT_EQ(aa.version, ba.version) << "task " << task;
    EXPECT_EQ(aa.start, ba.start) << "task " << task;
    EXPECT_EQ(aa.finish, ba.finish) << "task " << task;
    EXPECT_EQ(aa.energy, ba.energy) << "task " << task;  // bit-identical double
  }
}

TEST(EventJson, MapDecisionRoundTrips) {
  obs::Event event;
  event.kind = obs::EventKind::MapDecision;
  event.heuristic = "SLRH-1";
  event.clock = 40;
  event.machine = 2;
  event.task = 17;
  event.version = VersionKind::Primary;
  event.score = 0.125;
  event.terms = {0.2, 0.05, -0.025, 0.125};
  event.start = 40;
  event.finish = 110;
  event.pool_size = 3;
  event.candidates.push_back({11, VersionKind::Secondary, 0.5, "beyond_horizon"});
  event.candidates.push_back({17, VersionKind::Primary, 0.125, ""});

  obs::JsonWriter json;
  event.write_json(json);
  const obs::JsonValue doc = obs::parse_json(json.str());

  EXPECT_EQ(doc.get_string("type"), "map");
  EXPECT_EQ(doc.get_string("heuristic"), "SLRH-1");
  EXPECT_EQ(doc.get_int("clock"), 40);
  EXPECT_EQ(doc.get_int("machine"), 2);
  EXPECT_EQ(doc.get_int("task"), 17);
  EXPECT_EQ(doc.get_string("version"), "primary");
  EXPECT_DOUBLE_EQ(doc.get_double("score"), 0.125);
  EXPECT_EQ(doc.get_int("start_cycles"), 40);
  EXPECT_EQ(doc.get_int("finish_cycles"), 110);
  const obs::JsonValue* terms = doc.find("terms");
  ASSERT_NE(terms, nullptr);
  EXPECT_DOUBLE_EQ(terms->get_double("t100"), 0.2);
  EXPECT_DOUBLE_EQ(terms->get_double("tec"), 0.05);
  EXPECT_DOUBLE_EQ(terms->get_double("aet"), -0.025);
  EXPECT_DOUBLE_EQ(terms->get_double("value"), 0.125);
  const obs::JsonValue* cands = doc.find("candidates");
  ASSERT_NE(cands, nullptr);
  ASSERT_EQ(cands->as_array().size(), 2u);
  EXPECT_EQ(cands->as_array()[0].get_string("reject"), "beyond_horizon");
  EXPECT_EQ(cands->as_array()[1].get_string("reject"), "");  // chosen: absent
}

TEST(EventJson, RunEndRoundTrips) {
  obs::Event event;
  event.kind = obs::EventKind::RunEnd;
  event.heuristic = "Max-Max";
  event.alpha = 0.6;
  event.beta = 0.3;
  event.gamma = 0.1;
  event.t100 = 40;
  event.assigned = 48;
  event.aet = 7779;
  event.feasible = true;
  event.wall_seconds = 0.0125;

  obs::JsonWriter json;
  event.write_json(json);
  const obs::JsonValue doc = obs::parse_json(json.str());
  EXPECT_EQ(doc.get_string("type"), "run_end");
  EXPECT_DOUBLE_EQ(doc.get_double("alpha"), 0.6);
  EXPECT_EQ(doc.get_int("t100"), 40);
  EXPECT_EQ(doc.get_int("assigned"), 48);
  EXPECT_EQ(doc.get_int("aet_cycles"), 7779);
  EXPECT_TRUE(doc.get_bool("feasible"));
  EXPECT_DOUBLE_EQ(doc.get_double("wall_seconds"), 0.0125);
}

TEST(JsonlSink, OneLinePerEvent) {
  std::ostringstream os;
  obs::JsonlSink sink(os);

  obs::Event event;
  event.kind = obs::EventKind::RunBegin;
  event.heuristic = "SLRH-1";
  sink.emit(event);
  event.kind = obs::EventKind::RunEnd;
  sink.emit(event);
  EXPECT_EQ(sink.events_written(), 2u);

  std::istringstream in(os.str());
  const auto lines = obs::parse_jsonl(in);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].get_string("type"), "run_begin");
  EXPECT_EQ(lines[1].get_string("type"), "run_end");
}

TEST(ForwardSink, NullDownstreamWantsNothingButKeepsMetrics) {
  obs::MetricsRegistry metrics;
  obs::ForwardSink sink(&metrics, nullptr);
  EXPECT_FALSE(sink.wants(obs::EventKind::MapDecision));
  EXPECT_EQ(sink.metrics(), &metrics);

  obs::CollectSink downstream;
  obs::ForwardSink forwarding(&metrics, &downstream);
  EXPECT_TRUE(forwarding.wants(obs::EventKind::MapDecision));
  obs::Event event;
  event.kind = obs::EventKind::Stall;
  forwarding.emit(event);
  EXPECT_EQ(downstream.count(obs::EventKind::Stall), 1u);
}

TEST(SlrhTrace, OneMapEventPerAssignmentWithTerms) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 32);
  obs::MetricsRegistry metrics;
  obs::CollectSink sink(&metrics);

  const auto result = core::run_slrh(scenario, slrh_params(&sink));

  EXPECT_EQ(sink.count(obs::EventKind::RunBegin), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::RunEnd), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::MapDecision),
            static_cast<std::size_t>(result.assigned));
  EXPECT_GT(sink.count(obs::EventKind::PoolBuilt), 0u);

  for (const auto& event : sink.events()) {
    if (event.kind != obs::EventKind::MapDecision) continue;
    // Every decision carries the three weighted objective terms, and their
    // combination IS the score the decision maximised.
    EXPECT_DOUBLE_EQ(event.terms.value, event.score);
    EXPECT_GE(event.terms.t100, 0.0);
    EXPECT_GE(event.terms.tec, 0.0);
    EXPECT_TRUE(event.machine != kInvalidMachine);
    EXPECT_TRUE(event.task != kInvalidTask);
    EXPECT_GE(event.finish, event.start);
    // The committed placement matches the event.
    const auto& assignment = result.schedule->assignment(event.task);
    EXPECT_EQ(assignment.machine, event.machine);
    EXPECT_EQ(assignment.version, event.version);
    EXPECT_EQ(assignment.start, event.start);
    EXPECT_EQ(assignment.finish, event.finish);
  }

  // Phase metrics flowed into the sink's registry.
  const auto snap = metrics.snapshot();
  ASSERT_NE(snap.find_counter("slrh.map_decisions"), nullptr);
  EXPECT_EQ(snap.find_counter("slrh.map_decisions")->value,
            static_cast<std::uint64_t>(result.assigned));
  ASSERT_NE(snap.find_histogram("slrh.pool_build_seconds"), nullptr);
  EXPECT_GT(snap.find_histogram("slrh.pool_build_seconds")->count, 0u);
}

TEST(MaxMaxTrace, OneMapEventPerAssignment) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 32);
  obs::CollectSink sink;
  core::MaxMaxParams params;
  params.weights = core::Weights::make(0.6, 0.3);
  params.sink = &sink;

  const auto result = core::run_maxmax(scenario, params);
  EXPECT_EQ(sink.count(obs::EventKind::MapDecision),
            static_cast<std::size_t>(result.assigned));
  EXPECT_EQ(sink.count(obs::EventKind::RunBegin), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::RunEnd), 1u);
}

TEST(SlrhTrace, NullSinkEmitsNothingAndSchedulesAreIdentical) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);

  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
    auto bare = slrh_params();
    bare.variant = variant;
    const auto without = core::run_slrh(scenario, bare);

    obs::MetricsRegistry metrics;
    obs::CollectSink sink(&metrics);
    auto traced = slrh_params(&sink);
    traced.variant = variant;
    const auto with = core::run_slrh(scenario, traced);

    EXPECT_EQ(without.t100, with.t100);
    EXPECT_EQ(without.aet, with.aet);
    EXPECT_EQ(without.tec, with.tec);
    expect_identical_schedules(*without.schedule, *with.schedule);
  }
}

TEST(MaxMaxTrace, SinkDoesNotChangeTheSchedule) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  core::MaxMaxParams bare;
  bare.weights = core::Weights::make(0.6, 0.3);
  const auto without = core::run_maxmax(scenario, bare);

  obs::CollectSink sink;
  core::MaxMaxParams traced = bare;
  traced.sink = &sink;
  const auto with = core::run_maxmax(scenario, traced);

  expect_identical_schedules(*without.schedule, *with.schedule);
}

TEST(TunerTrace, PointAndBestEvents) {
  const auto scenario = test::two_fast_independent(8);
  const core::WeightedSolver solver = [&](const core::Weights& w) {
    auto params = slrh_params();
    params.weights = w;
    return core::run_slrh(scenario, params);
  };
  core::TunerParams params;
  params.coarse_step = 0.5;
  params.fine_step = 0.0;
  params.parallel = false;
  obs::CollectSink sink;
  params.sink = &sink;

  const auto outcome = core::tune_weights(solver, params);
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(sink.count(obs::EventKind::TunerPoint), outcome.evaluated.size());
  EXPECT_EQ(sink.count(obs::EventKind::TunerBest), 1u);
}

}  // namespace
