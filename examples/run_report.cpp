// Run report: the "where did the wall time go" reader for slrh_cli's
// artifacts. Renders a `.frames.jsonl` flight recording (slrh_cli
// --frames-jsonl) as a timeline table plus a summary block, summarises a
// `.spans.jsonl` ledger export (--spans) and the worker rows of a Chrome
// trace (--workers), and compares two recordings (--diff).
//
//   slrh_cli --heuristic slrh1 --frames-jsonl run.frames.jsonl
//   run_report run.frames.jsonl --every 50
//   run_report base.frames.jsonl --diff candidate.frames.jsonl
//
// The timeline samples one row per `--every` frames (always including the
// first and last); `--heuristic` filters a multi-heuristic recording (frames
// carry their heuristic's name, so concatenated recordings split back apart).
//
// --diff aligns the two recordings timestep by timestep on (heuristic,
// clock) and reports where, and by how much, they diverge: A/B-ing a code
// change, comparing weight settings, or measuring churn against a churn-free
// run of the same scenario. Sampling differences (idle-stride decimation)
// leave unmatched frames, which are counted but not compared.
//
// Exit status: 0 success (with --diff: identical within --tol), 1 the
// recordings diverged, 2 usage error or an unreadable or malformed file.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/args.hpp"
#include "support/flight_recorder.hpp"
#include "support/jsonl.hpp"
#include "support/table.hpp"
#include "support/task_ledger.hpp"

namespace {

using ahg::obs::Frame;

/// Exit status for usage errors and unreadable or malformed files.
constexpr int kBadInput = 2;

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open");
  return in;
}

std::vector<Frame> load_frames(const std::string& path, const std::string& filter) {
  std::ifstream in = open_or_throw(path);
  std::vector<Frame> frames = ahg::obs::read_frames_jsonl(in);
  if (!filter.empty()) {
    std::erase_if(frames, [&](const Frame& f) { return f.heuristic != filter; });
  }
  return frames;
}

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
void report_spans(const std::string& path) {
  using namespace ahg;
  std::ifstream in = open_or_throw(path);
  const auto spans = obs::read_task_spans_jsonl(in);
  if (spans.empty()) {
    std::cout << "spans: none in " << path << "\n";
    return;
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
}

/// Worker-utilization summary of a --chrome-trace document: parses the
/// pid-3 runtime process back out of the JSON — thread_name metadata for the
/// row labels, the per-slot "worker_counters" instants for whole-run totals,
/// ph-X slices for the per-region busy attribution (ring-bounded: slices
/// cover the newest window when a long run wrapped the event rings).
void report_workers(const std::string& path) {
  using namespace ahg;
  std::ifstream in = open_or_throw(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(buffer.str());
  const obs::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("no traceEvents array");
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
      // Counters: at most 2^53, the frames reader's bound.
      const auto count = [&](const char* field) {
        return static_cast<std::uint64_t>(obs::checked_int(
            event_args->find(field), field, 0, std::int64_t{1} << 53));
      };
      WorkerStats& w = workers[tid];
      w.label = event_args->get_string("label");
      w.tasks = count("tasks");
      w.steals = count("steals");
      w.steal_attempts = count("steal_attempts");
      w.parks = count("parks");
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
              << " — was the trace written by slrh_cli --chrome-trace?\n";
    return;
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
}

/// Timeline table plus summary block per heuristic, in first-seen order.
void report_frames(const std::vector<Frame>& frames, std::size_t every) {
  using namespace ahg;
  std::vector<std::string> order;
  for (const auto& frame : frames) {
    if (std::find(order.begin(), order.end(), frame.heuristic) == order.end())
      order.push_back(frame.heuristic);
  }

  for (const auto& name : order) {
    std::vector<const Frame*> group;
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
      const Frame& f = *group[i];
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

    const Frame& last = *group.back();
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
}

struct TermDelta {
  std::string name;
  double max_abs = 0.0;
  ahg::Cycles at_clock = -1;

  void feed(double a, double b, ahg::Cycles clock) {
    const double delta = std::abs(a - b);
    if (delta > max_abs) {
      max_abs = delta;
      at_clock = clock;
    }
  }
};

/// --diff: the first diverging field and the per-term drift. Returns 0 when
/// every aligned frame matches within `tol`, 1 on divergence, kBadInput when
/// the recordings share no (heuristic, clock) pair.
int diff_frames(const std::vector<Frame>& base, const std::vector<Frame>& cand,
                const std::string& base_path, const std::string& cand_path,
                double tol) {
  using namespace ahg;
  // Index: (heuristic, clock) -> frame. Later duplicates win (a recording
  // ring that wrapped keeps the newest sample of a clock).
  std::map<std::pair<std::string, Cycles>, const Frame*> base_index;
  for (const Frame& f : base) base_index[{f.heuristic, f.clock}] = &f;

  std::size_t aligned = 0;
  std::size_t cand_only = 0;
  bool diverged = false;
  const Frame* first_base = nullptr;
  const Frame* first_cand = nullptr;
  std::string first_field;

  TermDelta deltas[] = {{"objective"}, {"term_t100"}, {"term_tec"},
                        {"term_aet"},  {"tec"}};
  double battery_drift = 0.0;
  Cycles battery_drift_clock = -1;

  const auto check_int = [&](const Frame& a, const Frame& b,
                             const char* field, std::uint64_t va,
                             std::uint64_t vb) {
    if (va == vb || diverged) return;
    diverged = true;
    first_base = &a;
    first_cand = &b;
    first_field = field;
  };
  const auto check_double = [&](const Frame& a, const Frame& b,
                                const char* field, double va, double vb) {
    if (std::abs(va - vb) <= tol || diverged) return;
    diverged = true;
    first_base = &a;
    first_cand = &b;
    first_field = field;
  };

  for (const Frame& c : cand) {
    const auto it = base_index.find({c.heuristic, c.clock});
    if (it == base_index.end()) {
      ++cand_only;
      continue;
    }
    const Frame& b = *it->second;
    ++aligned;

    check_int(b, c, "assigned", b.assigned, c.assigned);
    check_int(b, c, "t100", b.t100, c.t100);
    check_int(b, c, "pools_built", b.pools_built, c.pools_built);
    check_int(b, c, "maps", b.maps, c.maps);
    check_int(b, c, "last_pool_size", b.last_pool_size, c.last_pool_size);
    check_int(b, c, "frontier_ready", b.frontier_ready, c.frontier_ready);
    check_int(b, c, "frontier_unreleased", b.frontier_unreleased,
              c.frontier_unreleased);
    check_int(b, c, "departures", b.departures, c.departures);
    check_int(b, c, "orphaned", b.orphaned, c.orphaned);
    check_int(b, c, "invalidated", b.invalidated, c.invalidated);
    check_double(b, c, "objective", b.objective, c.objective);
    check_double(b, c, "tec", b.tec, c.tec);
    check_int(b, c, "aet", static_cast<std::uint64_t>(b.aet),
              static_cast<std::uint64_t>(c.aet));

    deltas[0].feed(b.objective, c.objective, c.clock);
    deltas[1].feed(b.term_t100, c.term_t100, c.clock);
    deltas[2].feed(b.term_tec, c.term_tec, c.clock);
    deltas[3].feed(b.term_aet, c.term_aet, c.clock);
    deltas[4].feed(b.tec, c.tec, c.clock);

    const std::size_t machines =
        std::min(b.battery_fraction.size(), c.battery_fraction.size());
    if (b.battery_fraction.size() != c.battery_fraction.size())
      check_int(b, c, "battery_fraction.size", b.battery_fraction.size(),
                c.battery_fraction.size());
    for (std::size_t m = 0; m < machines; ++m) {
      const double drift =
          std::abs(b.battery_fraction[m] - c.battery_fraction[m]);
      if (drift > battery_drift) {
        battery_drift = drift;
        battery_drift_clock = c.clock;
      }
      if (drift > tol) check_double(b, c, "battery_fraction", 0.0, drift);
    }
  }
  const std::size_t base_only = base.size() - aligned;

  std::cout << "aligned " << aligned << " frame(s) on (heuristic, clock); "
            << base_only << " only in " << base_path << ", " << cand_only
            << " only in " << cand_path << "\n";
  if (aligned == 0) {
    std::cerr << "run_report: nothing to compare — the recordings share no "
                 "(heuristic, clock) pair (different scenarios or sampling "
                 "options?)\n";
    return kBadInput;
  }

  if (diverged) {
    std::cout << "FIRST DIVERGENCE: " << first_cand->heuristic << " clock "
              << first_cand->clock << ", field " << first_field << "\n";
    TextTable table({"field", "base", "candidate"},
                    {Align::Left, Align::Right, Align::Right});
    const auto row = [&](const std::string& name, double a, double b,
                         int precision) {
      table.begin_row();
      table.cell(name);
      table.cell(a, precision);
      table.cell(b, precision);
    };
    row("objective", first_base->objective, first_cand->objective, 6);
    row("assigned", static_cast<double>(first_base->assigned),
        static_cast<double>(first_cand->assigned), 0);
    row("T100", static_cast<double>(first_base->t100),
        static_cast<double>(first_cand->t100), 0);
    row("maps this tick", static_cast<double>(first_base->maps),
        static_cast<double>(first_cand->maps), 0);
    row("pool size", static_cast<double>(first_base->last_pool_size),
        static_cast<double>(first_cand->last_pool_size), 0);
    row("TEC", first_base->tec, first_cand->tec, 4);
    table.render(std::cout);
  } else {
    std::cout << "no divergence: every aligned frame matches (tol "
              << format_fixed(tol, 12) << " on floats)\n";
  }

  std::cout << "max per-term drift over aligned frames:\n";
  TextTable drift({"term", "max |delta|", "at clock"},
                  {Align::Left, Align::Right, Align::Right});
  for (const TermDelta& d : deltas) {
    drift.begin_row();
    drift.cell(d.name);
    drift.cell(d.max_abs, 9);
    drift.cell(static_cast<long long>(d.at_clock));
  }
  drift.begin_row();
  drift.cell(std::string("battery (per-machine)"));
  drift.cell(battery_drift, 9);
  drift.cell(static_cast<long long>(battery_drift_clock));
  drift.render(std::cout);

  return diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;

  ArgParser args("run_report",
                 "summarise a .frames.jsonl flight recording as a timeline "
                 "table, or compare two recordings with --diff");
  args.add_positional("frames",
                      "the .frames.jsonl file to report on (optional when "
                      "only --workers/--spans are requested; the base "
                      "recording with --diff)",
                      std::optional<std::string>(""));
  args.add_int("every", 1,
               "print one timeline row per N frames (first and last frames "
               "are always shown)");
  args.add_string("heuristic", "",
                  "only report frames whose heuristic matches exactly (e.g. "
                  "\"SLRH-1\", \"Max-Max\"); default: all, grouped");
  args.add_string("spans", "",
                  "also summarise a .spans.jsonl task-ledger export (written "
                  "by slrh_cli --spans-jsonl): span and task counts per kind");
  args.add_string("workers", "",
                  "summarise the runtime (pid 3) process of a slrh_cli "
                  "--chrome-trace document: per-worker utilization and steal "
                  "counters plus per-region utilization, steal ratio, and "
                  "imbalance (max/median worker busy)");
  args.add_string("diff", "",
                  "instead of the timeline, align this candidate recording "
                  "with the frames file by (heuristic, clock) and report the "
                  "first divergence and per-term drift; exit 1 if they "
                  "diverge");
  args.add_double("tol", 0.0,
                  "--diff: absolute tolerance for floating-point fields "
                  "(terms, objective, TEC, battery); integers always compare "
                  "exactly");
  if (!args.parse(argc, argv)) return args.error() ? kBadInput : EXIT_SUCCESS;

  const std::string spans_path = args.get_string("spans");
  const std::string workers_path = args.get_string("workers");
  const std::string path = args.get_string("frames");
  const std::string diff_path = args.get_string("diff");
  const std::string filter = args.get_string("heuristic");
  if (path.empty() &&
      (!diff_path.empty() || (workers_path.empty() && spans_path.empty()))) {
    std::cerr << "run_report: nothing to do — give a frames file, "
                 "--workers, or --spans (--diff needs a frames file)\n";
    return kBadInput;
  }

  // One catch for every reader: an unreadable or malformed artifact is
  // reported as `run_report: <path>: <message>` with exit status 2.
  std::string reading;
  try {
    int status = EXIT_SUCCESS;
    if (!path.empty()) {
      reading = path;
      const std::vector<Frame> frames = load_frames(path, filter);
      if (!diff_path.empty()) {
        reading = diff_path;
        const std::vector<Frame> cand = load_frames(diff_path, filter);
        if (frames.empty() || cand.empty()) {
          std::cerr << "run_report: " << (frames.empty() ? path : diff_path)
                    << " holds no frames"
                    << (filter.empty() ? "" : " matching --heuristic") << "\n";
          return kBadInput;
        }
        status = diff_frames(frames, cand, path, diff_path, args.get_double("tol"));
      } else if (frames.empty()) {
        // An empty (or fully filtered) stream is a report, not an error: say
        // so cleanly instead of printing a degenerate table of garbage rows.
        std::cout << "run_report: no frames"
                  << (filter.empty() ? "" : " matching --heuristic") << " in "
                  << path << " — nothing to report\n";
      } else {
        report_frames(frames, static_cast<std::size_t>(
                                  std::max<std::int64_t>(1, args.get_int("every"))));
      }
    }
    if (!workers_path.empty()) {
      reading = workers_path;
      report_workers(workers_path);
    }
    if (!spans_path.empty()) {
      reading = spans_path;
      report_spans(spans_path);
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "run_report: " << reading << ": " << e.what() << "\n";
    return kBadInput;
  }
}
