// Trace inspector: the "why was this decision taken" reader. Offline
// analysis of the per-decision JSONL telemetry the heuristics emit (slrh_cli
// --trace-jsonl).
//
// With no options: per-heuristic run summaries — decisions, stalls, pool
// statistics, admission-rejection totals, and the final run outcome.
// With --task N: the "why" drill-down — for every map event of subtask N,
// reconstruct what the heuristic saw at that moment: the candidate pool, the
// higher-ranked candidates that were passed over (and the reason each was
// rejected), and the weighted objective-term breakdown that made the chosen
// (task, version, machine) the winner. Everything is answered from the trace
// file alone; no re-run needed.
//
//   trace_inspect decisions.jsonl
//   trace_inspect decisions.jsonl --task 17
//
// Exit status: 0 success, 2 usage error or an unreadable or malformed file.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/args.hpp"
#include "support/jsonl.hpp"
#include "support/units.hpp"

namespace {

using ahg::obs::JsonValue;

// The spans and frames readers' ranges: ids in [-1, int32 max], clocks and
// counts in [0, 2^53] (the last integer a JSON number holds exactly).
constexpr std::int64_t kMaxId = std::numeric_limits<ahg::TaskId>::max();
constexpr std::int64_t kMaxCount = std::int64_t{1} << 53;

std::int64_t id_field(const JsonValue& event, const char* field) {
  return ahg::obs::checked_int(event.find(field), field, -1, kMaxId, -1);
}

std::int64_t count_field(const JsonValue& event, const char* field) {
  return ahg::obs::checked_int(event.find(field), field, 0, kMaxCount);
}

struct HeuristicStats {
  std::size_t run_begins = 0;
  std::size_t run_ends = 0;
  std::size_t maps = 0;
  std::size_t stalls = 0;
  std::size_t pools = 0;
  std::size_t pool_members = 0;
  std::size_t rejected_unreleased = 0;
  std::size_t rejected_assigned = 0;
  std::size_t rejected_parents = 0;
  std::size_t rejected_energy = 0;
  std::size_t tuner_points = 0;
  std::size_t tuner_feasible = 0;
  const JsonValue* last_run_end = nullptr;
  const JsonValue* tuner_best = nullptr;
};

std::string version_name(const JsonValue& event) {
  return event.get_string("version", "?");
}

void print_terms(const JsonValue& event) {
  if (const JsonValue* terms = event.find("terms"); terms != nullptr) {
    std::cout << "    objective terms: alpha*T100/|T| = "
              << terms->get_double("t100") << ", beta*TEC/TSE = "
              << terms->get_double("tec") << " (subtracted), gamma*AET/tau = "
              << terms->get_double("aet") << " -> value "
              << terms->get_double("value") << "\n";
  }
}

void drill_down(const std::vector<JsonValue>& events, std::int64_t task) {
  std::size_t hits = 0;
  for (const auto& event : events) {
    if (event.get_string("type") != "map") continue;
    if (id_field(event, "task") != task) continue;
    ++hits;
    // Read every checked field before printing, so a malformed event fails
    // before any of its lines are written.
    const std::int64_t machine = id_field(event, "machine");
    const std::int64_t clock = count_field(event, "clock");
    const std::int64_t pool_size = count_field(event, "pool_size");
    const std::int64_t start = count_field(event, "start_cycles");
    const std::int64_t finish = count_field(event, "finish_cycles");
    std::cout << "why task " << task << " -> machine " << machine << " ("
              << event.get_string("heuristic", "?") << ")\n";
    if (event.find("clock") != nullptr) {
      std::cout << "  at clock " << clock << ": ";
    } else {
      std::cout << "  ";
    }
    std::cout << "pool of " << pool_size << " candidates; chose "
              << version_name(event) << " version, score "
              << event.get_double("score") << ", start " << start << ", finish "
              << finish << "\n";
    print_terms(event);
    if (const JsonValue* cands = event.find("candidates");
        cands != nullptr && cands->is_array()) {
      bool any_skipped = false;
      for (const auto& cand : cands->as_array()) {
        const std::string reject = cand.get_string("reject");
        const std::int64_t cand_task = id_field(cand, "task");
        if (cand_task == task && reject.empty()) break;  // the chosen one
        if (!any_skipped) {
          std::cout << "    ranked above it but passed over:\n";
          any_skipped = true;
        }
        std::cout << "      task " << cand_task << " (" << version_name(cand)
                  << ", score " << cand.get_double("score") << "): " << reject
                  << "\n";
      }
      if (!any_skipped) {
        std::cout << "    it was the highest-scoring candidate in the pool\n";
      }
    }
  }
  if (hits == 0) {
    std::cout << "no map event for task " << task
              << " in this trace (unmapped, or the run was not traced)\n";
  }
}

void summarize(const std::vector<JsonValue>& events) {
  std::map<std::string, HeuristicStats> by_heuristic;
  for (const auto& event : events) {
    const std::string type = event.get_string("type");
    HeuristicStats& stats = by_heuristic[event.get_string("heuristic", "?")];
    if (type == "run_begin") {
      ++stats.run_begins;
    } else if (type == "run_end") {
      ++stats.run_ends;
      stats.last_run_end = &event;
    } else if (type == "map") {
      ++stats.maps;
    } else if (type == "stall") {
      ++stats.stalls;
    } else if (type == "pool") {
      ++stats.pools;
      stats.pool_members += static_cast<std::size_t>(count_field(event, "pool_size"));
      stats.rejected_unreleased +=
          static_cast<std::size_t>(count_field(event, "rejected_unreleased"));
      stats.rejected_assigned +=
          static_cast<std::size_t>(count_field(event, "rejected_assigned"));
      stats.rejected_parents +=
          static_cast<std::size_t>(count_field(event, "rejected_parents"));
      stats.rejected_energy +=
          static_cast<std::size_t>(count_field(event, "rejected_energy"));
    } else if (type == "tuner_point") {
      ++stats.tuner_points;
      if (event.get_bool("feasible")) ++stats.tuner_feasible;
    } else if (type == "tuner_best") {
      stats.tuner_best = &event;
    }
  }

  std::cout << events.size() << " events\n";
  for (const auto& [name, stats] : by_heuristic) {
    std::cout << "\n" << name << ":\n";
    if (stats.run_begins > 0 || stats.run_ends > 0) {
      std::cout << "  runs: " << stats.run_begins << "\n";
    }
    std::cout << "  map decisions: " << stats.maps << ", stalls: " << stats.stalls
              << "\n";
    if (stats.pools > 0) {
      std::cout << "  pools built: " << stats.pools << " (avg size "
                << static_cast<double>(stats.pool_members) /
                       static_cast<double>(stats.pools)
                << ")\n"
                << "  pool rejections: " << stats.rejected_unreleased
                << " unreleased, " << stats.rejected_assigned << " assigned, "
                << stats.rejected_parents << " parents unmapped, "
                << stats.rejected_energy << " energy\n";
    }
    if (stats.tuner_points > 0) {
      std::cout << "  tuner points: " << stats.tuner_points << " ("
                << stats.tuner_feasible << " feasible)\n";
    }
    if (stats.tuner_best != nullptr) {
      const auto& best = *stats.tuner_best;
      std::cout << "  tuner best: alpha=" << best.get_double("alpha")
                << ", beta=" << best.get_double("beta")
                << ", T100=" << best.get_int("t100")
                << (best.get_bool("feasible") ? "" : " (NO feasible point)") << "\n";
    }
    if (stats.last_run_end != nullptr) {
      const auto& end = *stats.last_run_end;
      std::cout << "  last run: T100=" << end.get_int("t100") << ", assigned "
                << end.get_int("assigned") << ", AET " << end.get_int("aet_cycles")
                << " cycles, "
                << (end.get_bool("feasible") ? "feasible" : "INFEASIBLE") << ", "
                << end.get_double("wall_seconds") * 1e3 << " ms\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ahg::ArgParser args("trace_inspect",
                      "summarize a heuristic decision trace (JSONL) and answer "
                      "why-was-task-t-mapped-to-machine-j queries");
  args.add_positional("trace", "JSONL trace file written via --trace-jsonl");
  args.add_int("task", -1, "drill into every map decision of this subtask id");
  if (!args.parse(argc, argv)) return args.error() ? 2 : EXIT_SUCCESS;

  // One catch for the load and the report: an unreadable or malformed trace
  // is reported as `trace_inspect: <path>: <message>` with exit status 2.
  const std::string path = args.get_string("trace");
  try {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open");
    const std::vector<JsonValue> events = ahg::obs::parse_jsonl(in);
    if (const std::int64_t task = args.get_int("task"); task >= 0) {
      drill_down(events, task);
    } else {
      summarize(events);
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_inspect: " << path << ": " << e.what() << "\n";
    return 2;
  }
  return EXIT_SUCCESS;
}
