// TaskLedger unit tests: the lifecycle state machine, first-seen milestone
// semantics, bounded history with drop accounting, churn re-arming, span
// derivation, and the JSONL round-trip — plus an SLRH integration run
// checking a real drive populates complete records.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/slrh.hpp"
#include "support/contract.hpp"
#include "support/task_ledger.hpp"
#include "tests/byte_mutation.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg {
namespace {

obs::TaskPlacementSample make_sample(TaskId task, MachineId machine,
                                     Cycles decision_clock, Cycles start,
                                     Cycles finish) {
  obs::TaskPlacementSample sample;
  sample.task = task;
  sample.machine = machine;
  sample.version = 0;
  sample.decision_clock = decision_clock;
  sample.arrival = start;
  sample.start = start;
  sample.finish = finish;
  return sample;
}

TEST(TaskLedger, LifecycleStateMachine) {
  obs::TaskLedger ledger(4);
  ledger.on_released(1, 0);
  ledger.on_frontier_ready(1, 0);
  ledger.on_pooled(1, 10, 2);
  auto sample = make_sample(1, 2, 10, 15, 40);
  sample.inputs.push_back({0, 3, 12, 15});  // timed cross-machine edge
  ledger.on_placement(std::move(sample));

  const auto r = ledger.record(1);
  EXPECT_EQ(r.state, obs::TaskState::Completed);
  EXPECT_EQ(r.released, 0);
  EXPECT_EQ(r.frontier_ready, 0);
  EXPECT_EQ(r.first_pooled, 10);
  EXPECT_EQ(r.admitted_clock, 10);
  EXPECT_EQ(r.machine, 2);
  EXPECT_EQ(r.version, 0);
  EXPECT_EQ(r.exec_start, 15);
  EXPECT_EQ(r.exec_finish, 40);
  EXPECT_EQ(r.attempts, 1u);
  ASSERT_EQ(r.inputs.size(), 1u);
  EXPECT_EQ(r.inputs[0].parent, 0);

  // History: Released, FrontierReady, Pooled, Admitted, InputTransfer,
  // Executing, Completed — in order.
  const std::vector<obs::TaskState> expected = {
      obs::TaskState::Released,      obs::TaskState::FrontierReady,
      obs::TaskState::Pooled,        obs::TaskState::Admitted,
      obs::TaskState::InputTransfer, obs::TaskState::Executing,
      obs::TaskState::Completed};
  ASSERT_EQ(r.history.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.history[i].state, expected[i]) << "transition " << i;
  }

  // The parent saw an output-transfer transition.
  const auto parent = ledger.record(0);
  ASSERT_FALSE(parent.history.empty());
  EXPECT_EQ(parent.history.back().state, obs::TaskState::OutputTransfer);
  EXPECT_EQ(parent.history.back().clock, 12);
}

TEST(TaskLedger, MilestonesAreFirstSeenOnly) {
  obs::TaskLedger ledger(2);
  ledger.on_released(0, 5);
  ledger.on_released(0, 99);  // ignored
  ledger.on_frontier_ready(0, 7);
  ledger.on_frontier_ready(0, 99);  // ignored: already past Released
  ledger.on_pooled(0, 9, 1);
  ledger.on_pooled(0, 99, 0);  // ignored: fast-path flag set

  const auto r = ledger.record(0);
  EXPECT_EQ(r.released, 5);
  EXPECT_EQ(r.frontier_ready, 7);
  EXPECT_EQ(r.first_pooled, 9);
  EXPECT_EQ(r.history.size(), 3u);
}

TEST(TaskLedger, ChurnReArmsAndCountsRemap) {
  obs::TaskLedger ledger(2);
  ledger.on_released(0, 0);
  ledger.on_frontier_ready(0, 0);
  ledger.on_pooled(0, 5, 0);
  ledger.on_placement(make_sample(0, 0, 5, 10, 30));
  ledger.on_orphaned(0, 20);

  // Orphaning re-opened the task: ready + pool fire again.
  ledger.on_frontier_ready(0, 20);
  ledger.on_pooled(0, 25, 1);
  ledger.on_placement(make_sample(0, 1, 25, 30, 50));

  const auto r = ledger.record(0);
  EXPECT_EQ(r.orphan_count, 1u);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.machine, 1);
  EXPECT_EQ(r.exec_start, 30);
  EXPECT_EQ(r.state, obs::TaskState::Completed);
  bool saw_remapped = false;
  for (const auto& tr : r.history) {
    if (tr.state == obs::TaskState::Remapped) saw_remapped = true;
  }
  EXPECT_TRUE(saw_remapped);
  // frontier_ready keeps the FIRST sighting; history carries the second.
  EXPECT_EQ(r.frontier_ready, 0);
}

TEST(TaskLedger, BoundedHistoryDropsNewestAndCounts) {
  obs::TaskLedger::Options options;
  options.max_transitions = 4;
  obs::TaskLedger ledger(1, options);
  ledger.on_released(0, 0);
  ledger.on_frontier_ready(0, 0);
  ledger.on_pooled(0, 1, 0);
  // Admitted fills the 4th slot; input/executing/completed overflow.
  ledger.on_placement(make_sample(0, 0, 1, 5, 10));

  const auto r = ledger.record(0);
  EXPECT_EQ(r.history.size(), 4u);
  // Released/ready/pooled/admitted landed; executing + completed overflowed.
  EXPECT_EQ(ledger.transitions_recorded(), 6u);
  EXPECT_EQ(ledger.transitions_dropped(), 2u);
  // Milestone fields still advanced past the cap.
  EXPECT_EQ(r.exec_finish, 10);
  EXPECT_EQ(r.state, obs::TaskState::Completed);
}

TEST(TaskLedger, MemoryBoundScalesWithTasksAndCap) {
  obs::TaskLedger::Options small;
  small.max_transitions = 4;
  obs::TaskLedger a(16, small);
  obs::TaskLedger b(32, small);
  obs::TaskLedger::Options big;
  big.max_transitions = 8;
  obs::TaskLedger c(16, big);
  EXPECT_GT(a.memory_bound_bytes(), 0u);
  EXPECT_EQ(b.memory_bound_bytes(), 2 * a.memory_bound_bytes());
  EXPECT_GT(c.memory_bound_bytes(), a.memory_bound_bytes());
}

TEST(TaskLedger, SpansDeriveWaitInputExec) {
  obs::TaskLedger ledger(3);
  ledger.on_released(1, 0);
  ledger.on_frontier_ready(1, 4);
  ledger.on_pooled(1, 10, 0);
  auto sample = make_sample(1, 0, 10, 20, 40);
  sample.inputs.push_back({0, 1, 16, 20});   // timed transfer
  sample.inputs.push_back({2, 0, 16, 16});   // same-machine handoff: no span
  ledger.on_placement(std::move(sample));

  const auto spans = ledger.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, "wait");
  EXPECT_EQ(spans[0].start, 4);
  EXPECT_EQ(spans[0].finish, 20);
  EXPECT_EQ(spans[1].kind, "input");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].kind, "exec");
  EXPECT_EQ(spans[2].start, 20);
  EXPECT_EQ(spans[2].finish, 40);
}

TEST(TaskLedger, SpansJsonlRoundTrip) {
  obs::TaskLedger ledger(3);
  ledger.on_released(1, 0);
  ledger.on_frontier_ready(1, 4);
  ledger.on_pooled(1, 10, 0);
  auto sample = make_sample(1, 0, 10, 20, 40);
  sample.version = 1;
  sample.inputs.push_back({0, 1, 16, 20});
  ledger.on_placement(std::move(sample));

  std::stringstream stream;
  ledger.write_spans_jsonl(stream);
  const auto spans = ledger.spans();
  const auto parsed = obs::read_task_spans_jsonl(stream);
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].task, spans[i].task) << i;
    EXPECT_EQ(parsed[i].parent, spans[i].parent) << i;
    EXPECT_EQ(parsed[i].kind, spans[i].kind) << i;
    EXPECT_EQ(parsed[i].machine, spans[i].machine) << i;
    EXPECT_EQ(parsed[i].version, spans[i].version) << i;
    EXPECT_EQ(parsed[i].start, spans[i].start) << i;
    EXPECT_EQ(parsed[i].finish, spans[i].finish) << i;
  }
}

std::vector<obs::TaskSpan> spans_from_text(const std::string& text) {
  std::istringstream in(text);
  return obs::read_task_spans_jsonl(in);
}

TEST(TaskLedger, SpansJsonlRejectsGarbledFields) {
  // One valid span; each case replaces one field's value.
  const std::map<std::string, std::string> valid = {
      {"task", "3"},   {"kind", "\"input\""}, {"parent", "1"}, {"machine", "2"},
      {"attempt", "1"}, {"start", "10"},       {"finish", "20"}};
  const auto line = [&](const std::string& field, const std::string& value) {
    std::string text = "{";
    for (const auto& [key, v] : valid) {
      if (text.size() > 1) text += ",";
      text += "\"" + key + "\":" + (key == field ? value : v);
    }
    return text + "}";
  };
  const std::string kIntMax = std::to_string(std::numeric_limits<std::int32_t>::max());
  const std::string kUintMax = std::to_string(std::numeric_limits<std::uint32_t>::max());
  const std::string kPast2To53 = "18014398509481984";  // 2^54
  const std::string kNotNumbers[] = {"2.5", "1e300", "\"7\"", "null", "true", "[1]"};
  struct Field {
    std::string name;
    std::vector<std::string> bad;   ///< out of range, beyond kNotNumbers
    std::vector<std::string> edges; ///< the accepted range's ends
  };
  const Field fields[] = {
      {"task", {"-2", "2147483648"}, {"-1", kIntMax}},
      {"parent", {"-2", "2147483648"}, {"-1", kIntMax}},
      {"machine", {"-2", "2147483648"}, {"-1", kIntMax}},
      {"attempt", {"-1", "4294967296"}, {"0", kUintMax}},
      {"start", {"-1", kPast2To53}, {"0", "9007199254740992"}},
      {"finish", {"-1", kPast2To53}, {"0", "9007199254740992"}},
  };
  for (const Field& field : fields) {
    std::vector<std::string> bad = field.bad;
    bad.insert(bad.end(), std::begin(kNotNumbers), std::end(kNotNumbers));
    for (const std::string& value : bad) {
      const std::string text = line(field.name, value);
      SCOPED_TRACE(text);
      try {
        spans_from_text(text);
        ADD_FAILURE() << "garbled field parsed";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(field.name), std::string::npos) << e.what();
      }
    }
    for (const std::string& value : field.edges) {
      const std::string text = line(field.name, value);
      const auto spans = spans_from_text(text);
      ASSERT_EQ(spans.size(), 1u) << text;
    }
  }
  const auto edge = spans_from_text(line("attempt", kUintMax));
  EXPECT_EQ(edge.front().attempt, std::numeric_limits<std::uint32_t>::max());

  // Absent fields keep their defaults.
  const auto sparse = spans_from_text(R"({"kind":"exec"})");
  ASSERT_EQ(sparse.size(), 1u);
  EXPECT_EQ(sparse.front().task, kInvalidTask);
  EXPECT_EQ(sparse.front().parent, kInvalidTask);
  EXPECT_EQ(sparse.front().machine, kInvalidMachine);
  EXPECT_EQ(sparse.front().attempt, 0u);
  EXPECT_EQ(sparse.front().start, 0);
}

TEST(TaskLedger, SpansJsonlSurvivesByteMutation) {
  // A spans file recorded from a real run, under random byte edits: each
  // mutant parses into in-range spans or throws PreconditionError.
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  obs::TaskLedger ledger(scenario.num_tasks());
  core::SlrhParams params;
  params.ledger = &ledger;
  core::run_slrh(scenario, params);
  std::ostringstream all;
  ledger.write_spans_jsonl(all);
  std::istringstream lines(all.str());
  std::string original;
  std::string text;
  for (int i = 0; i < 8 && std::getline(lines, text); ++i) original += text + "\n";
  ASSERT_FALSE(original.empty());

  constexpr Cycles kMaxCycle = Cycles{1} << 53;
  const auto tally = test::run_byte_mutations(original, 2000, 0x5BA115ull,
                                              [&](std::istream& in) {
    for (const obs::TaskSpan& s : obs::read_task_spans_jsonl(in)) {
      EXPECT_GE(s.task, kInvalidTask);
      EXPECT_GE(s.parent, kInvalidTask);
      EXPECT_GE(s.machine, kInvalidMachine);
      EXPECT_GE(s.start, 0);
      EXPECT_LE(s.start, kMaxCycle);
      EXPECT_GE(s.finish, 0);
      EXPECT_LE(s.finish, kMaxCycle);
    }
  });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(TaskLedger, ConcurrentPoolSightingsRecordOnce) {
  obs::TaskLedger ledger(64);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&ledger, w] {
      for (TaskId t = 0; t < 64; ++t) {
        ledger.on_pooled(t, 10 + w, static_cast<MachineId>(w));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (TaskId t = 0; t < 64; ++t) {
    const auto r = ledger.record(t);
    ASSERT_EQ(r.history.size(), 1u) << "task " << t;
    EXPECT_EQ(r.history[0].state, obs::TaskState::Pooled);
  }
  EXPECT_EQ(ledger.transitions_recorded(), 64u);
}

TEST(TaskLedger, SlrhRunPopulatesCompleteRecords) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  obs::TaskLedger ledger(scenario.num_tasks());
  core::SlrhParams params;
  params.weights = core::Weights::make(0.6, 0.3);
  params.ledger = &ledger;
  const auto result = core::run_slrh(scenario, params);
  ASSERT_GT(result.assigned, 0);

  const auto records = ledger.records();
  for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
    if (!result.schedule->is_assigned(t)) continue;
    const auto& r = records[static_cast<std::size_t>(t)];
    EXPECT_EQ(r.state, obs::TaskState::Completed) << "task " << t;
    EXPECT_EQ(r.released, scenario.release(t)) << "task " << t;
    EXPECT_GE(r.frontier_ready, r.released) << "task " << t;
    EXPECT_GE(r.first_pooled, 0) << "task " << t;
    EXPECT_GE(r.admitted_clock, 0) << "task " << t;
    EXPECT_EQ(r.machine, result.schedule->assignment(t).machine) << "task " << t;
    EXPECT_EQ(r.attempts, 1u) << "task " << t;
  }
  EXPECT_EQ(ledger.transitions_dropped(), 0u);
}

}  // namespace
}  // namespace ahg
