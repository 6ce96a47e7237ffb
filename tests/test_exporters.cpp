// Tests for the flight-recorder export format: Chrome trace_event JSON
// (chrome://tracing / Perfetto legacy mode), checked structurally — parse
// the output, don't pattern-match it.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/slrh.hpp"
#include "support/chrome_trace.hpp"
#include "support/flight_recorder.hpp"
#include "support/jsonl.hpp"
#include "support/task_ledger.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;
using obs::FlightRecorder;
using obs::Frame;

void record_run(FlightRecorder& recorder) {
  workload::SuiteParams params;
  params.num_tasks = 48;
  params.num_etc = 1;
  params.num_dag = 1;
  const workload::ScenarioSuite suite(params);
  const auto scenario = suite.make(sim::GridCase::A, 0, 0);
  core::SlrhParams slrh;
  slrh.recorder = &recorder;
  core::run_slrh(scenario, slrh);
}

TEST(ChromeTrace, DocumentParsesWithDurationAndCounterEvents) {
  FlightRecorder recorder(FlightRecorder::dense_options());
  record_run(recorder);
  std::ostringstream os;
  obs::write_chrome_trace(os, recorder, "test_process");

  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t duration_events = 0;
  std::size_t counter_events = 0;
  std::size_t metadata_events = 0;
  bool saw_objective_track = false;
  bool saw_battery_track = false;
  bool saw_process_name = false;
  for (const obs::JsonValue& event : events->as_array()) {
    const std::string ph = event.get_string("ph");
    if (ph == "X") {
      ++duration_events;
      // Spans carry microsecond timestamps and non-negative durations.
      EXPECT_GE(event.get_double("ts"), 0.0);
      EXPECT_GE(event.get_double("dur"), 0.0);
      EXPECT_FALSE(event.get_string("name").empty());
    } else if (ph == "C") {
      ++counter_events;
      const std::string name = event.get_string("name");
      if (name == "objective") saw_objective_track = true;
      if (name == "battery") saw_battery_track = true;
      ASSERT_NE(event.find("args"), nullptr);
    } else if (ph == "M") {
      ++metadata_events;
      if (event.get_string("name") == "process_name") {
        const obs::JsonValue* args = event.find("args");
        ASSERT_NE(args, nullptr);
        if (args->get_string("name") == "test_process") saw_process_name = true;
      }
    }
  }
  EXPECT_GT(duration_events, 0u);   // pool builds + the run span
  EXPECT_GT(counter_events, 0u);    // per-frame tracks
  EXPECT_GT(metadata_events, 0u);   // track labels
  EXPECT_TRUE(saw_objective_track);
  EXPECT_TRUE(saw_battery_track);
  EXPECT_TRUE(saw_process_name);
}

TEST(ChromeTrace, EmptyRecorderStillEmitsValidDocument) {
  FlightRecorder recorder;
  std::ostringstream os;
  obs::write_chrome_trace(os, recorder);
  const obs::JsonValue doc = obs::parse_json(os.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
}

TEST(ChromeTrace, HostileEventNamesAreEscapedToPureAscii) {
  // Control characters, quotes, backslashes, raw UTF-8, and invalid bytes in
  // span names must neither break the JSON document nor leak through raw.
  FlightRecorder recorder;
  recorder.add_span("tab\there", 0.0, 0.1);
  recorder.add_span("new\nline \"quoted\" back\\slash", 0.2, 0.1);
  recorder.add_span("unicode \xc3\xa9\xe2\x82\xac\xf0\x9f\x9a\x80", 0.4, 0.1);
  recorder.add_span("invalid \xff\xfe bytes", 0.6, 0.1);
  recorder.add_span(std::string("embedded\0nul", 12), 0.8, 0.1);

  std::ostringstream os;
  obs::write_chrome_trace(os, recorder, "proc \x01 \xc2\xa9");
  const std::string text = os.str();
  // Pure printable ASCII on the wire: every control/non-ASCII byte was
  // escaped somewhere upstream.
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u == '\n' || (u >= 0x20 && u < 0x7F))
        << "raw byte 0x" << std::hex << +u << " leaked into the document";
  }

  // And the parser round-trips the names (valid UTF-8 exactly; invalid bytes
  // as U+FFFD).
  const obs::JsonValue doc = obs::parse_json(text);
  std::vector<std::string> names;
  for (const obs::JsonValue& event : doc.find("traceEvents")->as_array()) {
    if (event.get_string("ph") == "X") names.push_back(event.get_string("name"));
  }
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "tab\there");
  EXPECT_EQ(names[1], "new\nline \"quoted\" back\\slash");
  EXPECT_EQ(names[2], "unicode \xc3\xa9\xe2\x82\xac\xf0\x9f\x9a\x80");
  EXPECT_EQ(names[3],
            "invalid \xef\xbf\xbd\xef\xbf\xbd bytes");  // U+FFFD twice
  EXPECT_EQ(names[4], std::string("embedded\0nul", 12));
}

TEST(JsonEscape, ControlNonAsciiAndMalformedBytes) {
  using obs::JsonWriter;
  EXPECT_EQ(JsonWriter::escape("plain ascii_09AZ"), "plain ascii_09AZ");
  EXPECT_EQ(JsonWriter::escape("\"\\\b\f\n\r\t"), "\\\"\\\\\\b\\f\\n\\r\\t");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01\x1f\x7f", 3)),
            "\\u0001\\u001f\\u007f");
  EXPECT_EQ(JsonWriter::escape("\xc3\xa9"), "\\u00e9");          // é
  EXPECT_EQ(JsonWriter::escape("\xe2\x82\xac"), "\\u20ac");      // €
  EXPECT_EQ(JsonWriter::escape("\xf0\x9f\x9a\x80"),
            "\\ud83d\\ude80");  // 🚀 as a surrogate pair
  // Malformed sequences degrade byte-wise to U+FFFD, never raw.
  EXPECT_EQ(JsonWriter::escape("\xff"), "\\ufffd");
  EXPECT_EQ(JsonWriter::escape("\x80"), "\\ufffd");          // lone continuation
  EXPECT_EQ(JsonWriter::escape("\xc3"), "\\ufffd");          // truncated lead
  EXPECT_EQ(JsonWriter::escape("\xc0\xaf"), "\\ufffd\\ufffd");  // overlong
  EXPECT_EQ(JsonWriter::escape("\xed\xa0\x80"),
            "\\ufffd\\ufffd\\ufffd");  // encoded surrogate
}

TEST(ChromeTrace, LedgerAddsTaskRowsAndFlowEvents) {
  workload::SuiteParams params;
  params.num_tasks = 48;
  params.num_etc = 1;
  params.num_dag = 1;
  const workload::ScenarioSuite suite(params);
  const auto scenario = suite.make(sim::GridCase::A, 0, 0);
  obs::TaskLedger ledger(scenario.num_tasks());
  core::SlrhParams slrh;
  slrh.ledger = &ledger;
  core::run_slrh(scenario, slrh);

  std::ostringstream os;
  obs::write_chrome_trace(os, nullptr, &ledger, "ledger_only");
  const obs::JsonValue doc = obs::parse_json(os.str());

  std::size_t exec_slices = 0;
  std::size_t flow_starts = 0;
  std::size_t flow_finishes = 0;
  bool saw_machine_row = false;
  for (const obs::JsonValue& event : doc.find("traceEvents")->as_array()) {
    const std::string ph = event.get_string("ph");
    if (ph == "X") {
      EXPECT_EQ(event.get_int("pid"), 2);  // the schedule process
      ++exec_slices;
    } else if (ph == "s") {
      ++flow_starts;
      EXPECT_EQ(event.get_string("cat"), "dataflow");
    } else if (ph == "f") {
      ++flow_finishes;
      EXPECT_EQ(event.get_string("bp"), "e");
    } else if (ph == "M" && event.get_string("name") == "thread_name") {
      const std::string row = event.find("args")->get_string("name");
      if (row.find("compute") != std::string::npos) saw_machine_row = true;
    }
  }
  EXPECT_GT(exec_slices, 0u);
  EXPECT_GT(flow_starts, 0u);
  EXPECT_GT(flow_finishes, 0u);
  EXPECT_TRUE(saw_machine_row);
}

}  // namespace
