// Bench regression gate CLI (bench_gate.hpp holds the pure logic).
//
//   bench_check [--baselines DIR] [--tolerance T] [--seconds-tolerance T]
//               [--floor F] [--update] [--allow-missing] BENCH_<name>.json...
//
// Check mode (default): each fresh BENCH dump is compared against
// DIR/BENCH_<bench>.json; any regression — or a metric missing on either
// side, unless --allow-missing — makes the exit status nonzero, which is
// what CI keys off. --update instead (re)writes the baselines from the
// fresh dumps, keeping each already-gated metric's tolerance and direction
// (only its value is refreshed; new metrics get --tolerance and the
// name-derived direction); commit the result alongside the change that
// moved the numbers.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_gate.hpp"
#include "support/contract.hpp"
#include "support/table.hpp"

namespace {

using namespace ahg;

int usage(const char* argv0, int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: " << argv0
      << " [--baselines DIR] [--tolerance T] [--seconds-tolerance T]\n"
         "       [--floor F] [--update] [--allow-missing] [--plot-scaling]\n"
         "       BENCH_<name>.json...\n"
         "\n"
         "  --baselines DIR        baseline directory (default bench/baselines)\n"
         "  --tolerance T          relative tolerance --update gives metrics the\n"
         "                         baseline does not gate yet (0.25)\n"
         "  --seconds-tolerance T  tolerance for wall-clock metrics in --update\n"
         "                         (defaults to --tolerance)\n"
         "  --floor F              absolute slack in seconds for upper-gated\n"
         "                         metrics during checks (default 0.005)\n"
         "  --update               rewrite baselines from the fresh dumps; gated\n"
         "                         metrics keep their tolerance and direction\n"
         "  --allow-missing        metrics missing on one side do not fail\n"
         "  --plot-scaling         instead of gating, dump phase seconds vs\n"
         "                         |T| across the given dumps (one row per\n"
         "                         *_seconds metric per dump; gnuplot/awk\n"
         "                         friendly: 'phase num_tasks seconds')\n";
  return code;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  AHG_EXPECTS_MSG(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string format_value(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

struct FreshDump {
  std::string path;
  std::string bench;
  std::int64_t num_tasks = 0;  ///< meta.num_tasks; 0 when the dump has none
  double peak_rss_bytes = 0.0;  ///< meta.peak_rss_bytes (0 on old dumps)
  double cpu_seconds = 0.0;     ///< meta.cpu_seconds
  double wall_seconds = 0.0;    ///< meta.wall_seconds
  obs::MetricsSnapshot metrics;
};

FreshDump load_dump(const std::string& path) {
  FreshDump dump;
  dump.path = path;
  const obs::JsonValue root = obs::parse_json(slurp(path));
  dump.bench = root.get_string("bench");
  AHG_EXPECTS_MSG(!dump.bench.empty(), path + ": no \"bench\" field");
  if (const obs::JsonValue* meta = root.find("meta")) {
    dump.num_tasks = meta->get_int("num_tasks", 0);
    dump.peak_rss_bytes = meta->get_double("peak_rss_bytes", 0.0);
    dump.cpu_seconds = meta->get_double("cpu_seconds", 0.0);
    dump.wall_seconds = meta->get_double("wall_seconds", 0.0);
  }
  const obs::JsonValue* metrics = root.find("metrics");
  AHG_EXPECTS_MSG(metrics != nullptr, path + ": no \"metrics\" object");
  dump.metrics = obs::snapshot_from_json(*metrics);
  return dump;
}

/// --plot-scaling: the scaling-curve dump. One row per *_seconds histogram
/// per input file, keyed by the dump's |T| — feed bench_scale dumps from
/// successive REPRO_SCALE tiers (or AHG_SCALE_TASKS doublings) in and plot
/// seconds vs |T| per phase to see which phases grow superlinearly.
int plot_scaling(const std::vector<std::string>& files) {
  struct Row {
    std::string phase;
    std::int64_t tasks;
    double seconds;
    std::string bench;
  };
  std::vector<Row> rows;
  for (const std::string& path : files) {
    const FreshDump dump = load_dump(path);
    AHG_EXPECTS_MSG(dump.num_tasks > 0,
                    path + ": no meta.num_tasks — not a scale dump");
    for (const auto& hist : dump.metrics.histograms) {
      const std::string suffix = "_seconds";
      if (hist.name.size() <= suffix.size() ||
          hist.name.compare(hist.name.size() - suffix.size(), suffix.size(),
                            suffix) != 0) {
        continue;
      }
      rows.push_back({hist.name, dump.num_tasks, hist.sum, dump.bench});
    }
    // Resource-footprint rows from the meta block (PR 10): memory growth and
    // parallel efficiency (cpu/wall, ideal = jobs) per |T|, plotted on the
    // same phase/value axes. Old dumps without the fields emit nothing.
    if (dump.peak_rss_bytes > 0.0) {
      rows.push_back(
          {"meta.peak_rss_bytes", dump.num_tasks, dump.peak_rss_bytes, dump.bench});
    }
    if (dump.wall_seconds > 0.0) {
      rows.push_back(
          {"meta.wall_seconds", dump.num_tasks, dump.wall_seconds, dump.bench});
      if (dump.cpu_seconds > 0.0) {
        rows.push_back(
            {"meta.cpu_seconds", dump.num_tasks, dump.cpu_seconds, dump.bench});
        rows.push_back({"meta.parallel_efficiency", dump.num_tasks,
                        dump.cpu_seconds / dump.wall_seconds, dump.bench});
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.phase != b.phase ? a.phase < b.phase : a.tasks < b.tasks;
  });
  std::cout << "# phase num_tasks seconds bench\n";
  for (const Row& row : rows) {
    std::cout << row.phase << " " << row.tasks << " " << format_value(row.seconds)
              << " " << row.bench << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselines_dir = "bench/baselines";
  double tolerance = 0.25;
  double seconds_tolerance = -1.0;
  double floor = 5e-3;
  bool update = false;
  bool allow_missing = false;
  bool scaling = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << name << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--baselines") {
      baselines_dir = value("--baselines");
    } else if (arg == "--tolerance") {
      tolerance = std::stod(value("--tolerance"));
    } else if (arg == "--seconds-tolerance") {
      seconds_tolerance = std::stod(value("--seconds-tolerance"));
    } else if (arg == "--floor") {
      floor = std::stod(value("--floor"));
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--allow-missing") {
      allow_missing = true;
    } else if (arg == "--plot-scaling") {
      scaling = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown argument '" << arg << "'\n";
      return usage(argv[0], 2);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << argv[0] << ": no BENCH json files given\n";
    return usage(argv[0], 2);
  }

  try {
    if (scaling) return plot_scaling(files);
    if (update) {
      std::filesystem::create_directories(baselines_dir);
      for (const std::string& path : files) {
        const FreshDump dump = load_dump(path);
        const std::string out_path = bench::baseline_path(baselines_dir, dump.bench);
        std::optional<bench::GateBaseline> previous;
        if (std::filesystem::exists(out_path)) {
          previous = bench::parse_baseline(obs::parse_json(slurp(out_path)));
        }
        const bench::GateBaseline baseline =
            bench::make_baseline(dump.bench, dump.metrics, tolerance, seconds_tolerance,
                                 previous ? &*previous : nullptr);
        std::ofstream out(out_path);
        AHG_EXPECTS_MSG(out.good(), "cannot write " + out_path);
        bench::write_baseline(out, baseline);
        std::cout << "wrote " << out_path << " (" << baseline.metrics.size()
                  << " metrics)\n";
      }
      return 0;
    }

    bool pass = true;
    for (const std::string& path : files) {
      const FreshDump dump = load_dump(path);
      const std::string base_path = bench::baseline_path(baselines_dir, dump.bench);
      bench::GateResult result;
      if (!std::filesystem::exists(base_path)) {
        // A bench with no committed baseline yet is a gate finding, not an
        // I/O error: every fresh metric reports MISSING(baseline), failing
        // unless --allow-missing, with the fix spelled out.
        result = bench::check_without_baseline(dump.metrics);
        std::cout << "no baseline at " << base_path << " — run\n  " << argv[0]
                  << " --update --baselines " << baselines_dir << " " << path
                  << "\nto create it\n";
      } else {
        const bench::GateBaseline baseline =
            bench::parse_baseline(obs::parse_json(slurp(base_path)));
        AHG_EXPECTS_MSG(baseline.bench == dump.bench,
                        base_path + ": baseline is for bench '" + baseline.bench +
                            "', fresh dump is '" + dump.bench + "'");
        result = bench::check_bench(baseline, dump.metrics, floor);
      }
      const bool file_ok = result.ok(allow_missing);
      pass = pass && file_ok;

      std::cout << "=== " << dump.bench << " (" << path << " vs " << base_path
                << ") ===\n";
      TextTable table({"metric", "baseline", "fresh", "tol", "gate", "verdict"});
      for (const auto& finding : result.findings) {
        if (finding.verdict == bench::GateVerdict::Ok) continue;
        table.begin_row();
        table.cell(finding.metric);
        table.cell(format_value(finding.baseline));
        table.cell(format_value(finding.fresh));
        table.cell(format_value(finding.tolerance));
        table.cell(std::string(to_string(finding.direction)));
        table.cell(std::string(to_string(finding.verdict)));
      }
      if (result.regressions == 0 && result.missing == 0) {
        std::cout << "all " << result.findings.size() << " metrics within tolerance\n";
      } else {
        table.render(std::cout);
        std::cout << result.regressions << " regression(s), " << result.missing
                  << " missing (" << result.findings.size() << " metrics checked)"
                  << (file_ok ? " — tolerated\n" : "\n");
      }
      std::cout << "\n";
    }

    if (!pass) {
      std::cerr << "bench_check: FAILED — see tables above\n";
      return 1;
    }
    std::cout << "bench_check: OK\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
}
