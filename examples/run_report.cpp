// Run report: render a `.frames.jsonl` flight recording (written by
// slrh_cli / trace_export via --frames-jsonl) as a human-readable timeline
// table plus a summary block — the quick look at "what did the run do over
// time" without loading a Chrome trace.
//
//   slrh_cli --heuristic slrh1 --frames-jsonl run.frames.jsonl
//   run_report run.frames.jsonl --every 50
//
// The timeline samples one row per `--every` frames (always including the
// first and last); `--heuristic` filters a multi-heuristic recording (e.g.
// trace_export writes SLRH-1 and Max-Max into one stream). `--spans` adds a
// task-major block from a `.spans.jsonl` ledger export.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <sstream>

#include "support/args.hpp"
#include "support/flight_recorder.hpp"
#include "support/jsonl.hpp"
#include "support/table.hpp"
#include "support/task_ledger.hpp"

namespace {

double min_battery(const ahg::obs::Frame& frame) {
  if (frame.battery_fraction.empty())
    return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(frame.battery_fraction.begin(),
                           frame.battery_fraction.end());
}

/// Frames without battery samples have no minimum: print "-", not "nan".
void battery_cell(ahg::TextTable& table, double value) {
  if (std::isnan(value)) {
    table.cell("-");
  } else {
    table.cell(value, 3);
  }
}

/// Task-major summary of a `.spans.jsonl` ledger export: span and task
/// counts plus total cycles per kind (exec / input / wait).
int report_spans(const std::string& path) {
  using namespace ahg;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "run_report: cannot open " << path << "\n";
    return 2;
  }
  const auto spans = obs::read_task_spans_jsonl(in);
  if (spans.empty()) {
    std::cout << "spans: none in " << path << "\n";
    return EXIT_SUCCESS;
  }
  std::map<std::string, std::pair<std::uint64_t, Cycles>> by_kind;
  std::set<TaskId> tasks;
  std::uint64_t remapped = 0;
  for (const auto& span : spans) {
    auto& [count, cycles] = by_kind[span.kind];
    ++count;
    cycles += span.finish - span.start;
    tasks.insert(span.task);
    if (span.kind == "exec" && span.attempt > 1) ++remapped;
  }
  std::cout << "=== spans — " << spans.size() << " span(s) over "
            << tasks.size() << " task(s) ===\n";
  TextTable table({"kind", "spans", "cycles"},
                  {Align::Left, Align::Right, Align::Right});
  for (const auto& [kind, entry] : by_kind) {
    table.begin_row();
    table.cell(kind);
    table.cell(entry.first);
    table.cell(static_cast<long long>(entry.second));
  }
  table.render(std::cout);
  if (remapped > 0) {
    std::cout << remapped << " exec span(s) from remapped placements\n";
  }
  std::cout << "\n";
  return EXIT_SUCCESS;
}

/// Worker-utilization summary of a --worker-trace Chrome trace: parses the
/// pid-3 runtime process back out of the JSON — thread_name metadata for the
/// row labels, the per-slot "worker_counters" instants for whole-run totals,
/// ph-X slices for the per-region busy attribution (ring-bounded: slices
/// cover the newest window when a long run wrapped the event rings).
int report_workers(const std::string& path) {
  using namespace ahg;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "run_report: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue root;
  try {
    root = obs::parse_json(buffer.str());
  } catch (const std::exception& e) {
    std::cerr << "run_report: " << path << ": " << e.what() << "\n";
    return 2;
  }
  const obs::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::cerr << "run_report: " << path << " has no traceEvents array\n";
    return 2;
  }

  constexpr std::int64_t kRuntimePid = 3;
  struct WorkerStats {
    std::string label;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t parks = 0;
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
  };
  struct RegionStats {
    std::uint64_t windows = 0;  ///< tid-0 region slices
    double wall_seconds = 0.0;  ///< summed window durations
    std::uint64_t slices = 0;   ///< run slices attributed to the region
    std::uint64_t stolen = 0;
    std::map<std::int64_t, double> busy_by_tid;
  };
  std::map<std::int64_t, std::string> tid_labels;
  std::map<std::int64_t, WorkerStats> workers;
  std::map<std::string, RegionStats> regions;

  for (const obs::JsonValue& event : events->as_array()) {
    if (event.get_int("pid") != kRuntimePid) continue;
    const std::string ph = event.get_string("ph");
    const std::int64_t tid = event.get_int("tid");
    const obs::JsonValue* event_args = event.find("args");
    if (ph == "M") {
      if (event.get_string("name") == "thread_name" && event_args != nullptr) {
        tid_labels[tid] = event_args->get_string("name");
      }
    } else if (ph == "i" && event.get_string("name") == "worker_counters" &&
               event_args != nullptr) {
      WorkerStats& w = workers[tid];
      w.label = event_args->get_string("label");
      w.tasks = static_cast<std::uint64_t>(event_args->get_int("tasks"));
      w.steals = static_cast<std::uint64_t>(event_args->get_int("steals"));
      w.steal_attempts =
          static_cast<std::uint64_t>(event_args->get_int("steal_attempts"));
      w.parks = static_cast<std::uint64_t>(event_args->get_int("parks"));
      w.busy_seconds = event_args->get_double("busy_seconds");
      w.idle_seconds = event_args->get_double("idle_seconds");
    } else if (ph == "X") {
      const double dur_seconds = event.get_double("dur") / 1e6;
      if (tid == 0) {
        RegionStats& r = regions[event.get_string("name")];
        ++r.windows;
        r.wall_seconds += dur_seconds;
      } else if (event.get_string("name") != "idle") {
        std::string region =
            event_args != nullptr ? event_args->get_string("region") : "";
        if (region.empty()) region = "(unmarked)";
        RegionStats& r = regions[region];
        ++r.slices;
        if (event_args != nullptr && event_args->get_bool("stolen")) ++r.stolen;
        r.busy_by_tid[tid] += dur_seconds;
      }
    }
  }

  if (workers.empty() && regions.empty()) {
    std::cout << "run_report: no runtime (pid 3) events in " << path
              << " — was the trace written with --worker-trace?\n";
    return EXIT_SUCCESS;
  }

  std::size_t num_workers = 0;
  for (const auto& [tid, label] : tid_labels) {
    if (tid != 0 && label.rfind("worker", 0) == 0) ++num_workers;
  }

  std::cout << "=== workers — " << num_workers << " pool worker(s) ===\n";
  TextTable worker_table(
      {"worker", "tasks", "stolen", "probes", "parks", "busy s", "idle s",
       "busy %"},
      {Align::Left, Align::Right, Align::Right, Align::Right, Align::Right,
       Align::Right, Align::Right, Align::Right});
  for (const auto& [tid, w] : workers) {
    const double span = w.busy_seconds + w.idle_seconds;
    worker_table.begin_row();
    worker_table.cell(w.label.empty() ? tid_labels[tid] : w.label);
    worker_table.cell(w.tasks);
    worker_table.cell(w.steals);
    worker_table.cell(w.steal_attempts);
    worker_table.cell(w.parks);
    worker_table.cell(w.busy_seconds, 6);
    worker_table.cell(w.idle_seconds, 6);
    worker_table.cell(span > 0.0 ? 100.0 * w.busy_seconds / span : 0.0, 1);
  }
  worker_table.render(std::cout);

  if (!regions.empty()) {
    std::cout << "\n=== regions — parallel_for windows (slice-window scope) "
                 "===\n";
    TextTable region_table(
        {"region", "windows", "wall s", "busy s", "util %", "slices", "stolen",
         "steal %", "imbalance"},
        {Align::Left, Align::Right, Align::Right, Align::Right, Align::Right,
         Align::Right, Align::Right, Align::Right, Align::Right});
    for (const auto& [name, r] : regions) {
      double busy = 0.0;
      std::vector<double> per_worker;
      for (const auto& [tid, seconds] : r.busy_by_tid) {
        busy += seconds;
        per_worker.push_back(seconds);
      }
      // Utilization: attributed busy time over the window's total worker
      // capacity. Imbalance: max/median per-worker busy — 1.0 is a perfectly
      // even fan-out, >> 1 means one worker carried the region.
      const double capacity =
          r.wall_seconds * static_cast<double>(std::max<std::size_t>(1, num_workers));
      std::sort(per_worker.begin(), per_worker.end());
      double imbalance = 0.0;
      if (!per_worker.empty()) {
        const double median = per_worker[per_worker.size() / 2];
        imbalance = median > 0.0 ? per_worker.back() / median : 0.0;
      }
      region_table.begin_row();
      region_table.cell(name);
      region_table.cell(r.windows);
      region_table.cell(r.wall_seconds, 6);
      region_table.cell(busy, 6);
      region_table.cell(capacity > 0.0 ? 100.0 * busy / capacity : 0.0, 1);
      region_table.cell(r.slices);
      region_table.cell(r.stolen);
      region_table.cell(
          r.slices > 0 ? 100.0 * static_cast<double>(r.stolen) /
                             static_cast<double>(r.slices)
                       : 0.0,
          1);
      region_table.cell(imbalance, 2);
    }
    region_table.render(std::cout);
  }
  std::cout << "\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;

  ArgParser args("run_report",
                 "summarise a .frames.jsonl flight recording as a timeline "
                 "table");
  args.add_positional("frames",
                      "the .frames.jsonl file to report on (optional when "
                      "only --workers/--spans are requested)",
                      std::optional<std::string>(""));
  args.add_int("every", 1,
               "print one timeline row per N frames (first and last frames "
               "are always shown)");
  args.add_string("heuristic", "",
                  "only report frames whose heuristic matches exactly (e.g. "
                  "\"SLRH-1\", \"Max-Max\"); default: all, grouped");
  args.add_string("spans", "",
                  "also summarise a .spans.jsonl task-ledger export (written "
                  "by slrh_cli / trace_export via --spans-jsonl): span and "
                  "task counts per kind");
  args.add_string("workers", "",
                  "summarise the runtime (pid 3) process of a --worker-trace "
                  "Chrome trace: per-worker utilization and steal counters "
                  "plus per-region utilization, steal ratio, and imbalance "
                  "(max/median worker busy)");
  if (!args.parse(argc, argv)) return args.error() ? EXIT_FAILURE : EXIT_SUCCESS;

  const std::string spans_path = args.get_string("spans");
  const std::string workers_path = args.get_string("workers");
  const std::string path = args.get_string("frames");
  if (path.empty()) {
    if (workers_path.empty() && spans_path.empty()) {
      std::cerr << "run_report: nothing to do — give a frames file, "
                   "--workers, or --spans\n";
      return 2;
    }
    if (!workers_path.empty()) {
      if (const int rc = report_workers(workers_path); rc != EXIT_SUCCESS)
        return rc;
    }
    if (!spans_path.empty()) return report_spans(spans_path);
    return EXIT_SUCCESS;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "run_report: cannot open " << path << "\n";
    return 2;
  }
  std::vector<obs::Frame> frames = obs::read_frames_jsonl(in);
  const std::string filter = args.get_string("heuristic");
  if (!filter.empty()) {
    std::erase_if(frames,
                  [&](const obs::Frame& f) { return f.heuristic != filter; });
  }
  if (frames.empty()) {
    // An empty (or fully filtered) stream is a report, not an error: say so
    // cleanly instead of printing a degenerate table of garbage rows.
    std::cout << "run_report: no frames"
              << (filter.empty() ? "" : " matching --heuristic") << " in "
              << path << " — nothing to report\n";
    if (!workers_path.empty()) {
      if (const int rc = report_workers(workers_path); rc != EXIT_SUCCESS)
        return rc;
    }
    if (!spans_path.empty()) return report_spans(spans_path);
    return EXIT_SUCCESS;
  }
  const auto every = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("every")));

  // Group by heuristic, preserving first-seen order (a trace_export stream
  // holds both heuristics back to back).
  std::vector<std::string> order;
  for (const auto& frame : frames) {
    if (std::find(order.begin(), order.end(), frame.heuristic) == order.end())
      order.push_back(frame.heuristic);
  }

  for (const auto& name : order) {
    std::vector<const obs::Frame*> group;
    for (const auto& frame : frames)
      if (frame.heuristic == name) group.push_back(&frame);

    std::cout << "=== " << name << " — " << group.size() << " frame(s) ===\n";
    TextTable table({"clock", "objective", "t100 term", "tec term", "aet term",
                     "assigned", "T100", "pools", "reused", "maps", "ready",
                     "min batt"},
                    {Align::Right, Align::Right, Align::Right, Align::Right,
                     Align::Right, Align::Right, Align::Right, Align::Right,
                     Align::Right, Align::Right, Align::Right, Align::Right});
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (i % every != 0 && i + 1 != group.size()) continue;
      const obs::Frame& f = *group[i];
      table.begin_row();
      table.cell(static_cast<long long>(f.clock));
      table.cell(f.objective, 5);
      table.cell(f.term_t100, 5);
      table.cell(f.term_tec, 5);
      table.cell(f.term_aet, 5);
      table.cell(f.assigned);
      table.cell(f.t100);
      table.cell(f.pools_built);
      table.cell(f.pools_reused);
      table.cell(f.maps);
      table.cell(f.frontier_ready);
      battery_cell(table, min_battery(f));
    }
    table.render(std::cout);

    const obs::Frame& last = *group.back();
    std::uint64_t total_pools = 0;
    std::uint64_t total_reused = 0;
    std::uint64_t total_maps = 0;
    double pool_seconds = 0.0;
    std::uint64_t active_ticks = 0;
    for (const auto* f : group) {
      total_pools += f->pools_built;
      total_reused += f->pools_reused;
      total_maps += f->maps;
      pool_seconds += f->pool_build_seconds;
      if (f->maps > 0) ++active_ticks;
    }
    std::cout << "summary: final clock " << last.clock << ", objective "
              << format_fixed(last.objective, 5) << " (t100 "
              << format_fixed(last.term_t100, 5) << ", tec -"
              << format_fixed(last.term_tec, 5) << ", aet "
              << format_fixed(last.term_aet, 5) << ")\n"
              << "         assigned " << last.assigned << " (T100 " << last.t100
              << "), AET " << last.aet << " cycles, TEC "
              << format_fixed(last.tec, 3) << "\n"
              << "         " << total_pools << " pool build(s), " << total_maps
              << " map(s), " << active_ticks << "/" << group.size()
              << " sampled ticks committed a map, pool-build time "
              << format_fixed(pool_seconds * 1e3, 3) << " ms\n";
    // Re-planning economy (cross-tick reuse): zero on recordings made with
    // pool_reuse off, and on pre-accelerator recordings.
    if (total_reused > 0) {
      std::cout << "         re-planning: " << total_pools << " pool(s) built vs "
                << total_reused << " reused\n";
    }
    if (last.departures > 0 || last.orphaned > 0) {
      std::cout << "         churn: " << last.departures << " departure(s), "
                << last.orphaned << " orphaned, " << last.invalidated
                << " invalidated, energy forfeited "
                << format_fixed(last.energy_forfeited, 3) << "\n";
    }
    std::cout << "\n";
  }
  if (!workers_path.empty()) {
    if (const int rc = report_workers(workers_path); rc != EXIT_SUCCESS)
      return rc;
  }
  if (!spans_path.empty()) return report_spans(spans_path);
  return EXIT_SUCCESS;
}
