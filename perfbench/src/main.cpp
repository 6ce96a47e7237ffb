// End-to-end benchmark for the SLRH reproduction.
//
//   perfbench --workload <paper-tune|wide-dag|churn-recovery> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Builds one pass's inputs several times to time set-up, then runs passes
// (pass k's inputs come from derive_seed(seed, k)) until --seconds have
// elapsed, at least kMinPasses times. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates bare and traced passes on the same inputs
// and reports the per-layer metrics plus the tracing overhead. The last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.
// run.py builds this binary and compares the printed digest with the
// committed expectation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/jsonl.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Passes always run, whatever --seconds says; quality metrics and the
/// digest cover exactly these, so they do not depend on speed.
constexpr std::size_t kMinPasses = 3;
/// Set-up samples per run; setup_s is their median.
constexpr std::size_t kSetupSamples = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <";
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) std::cerr << (i ? "|" : "") << names[i];
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') usage("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds >= 0.0 && o.seconds <= 120.0)) {
        usage("bad --seconds " + value);
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of a few standard percentiles with at least ten samples
/// above it, or 0 when there are too few samples.
double reportable_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's footprint, which survives exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics reported for every workload (0 where a layer does not
/// run), in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const std::vector<LayerTotals>& traced,
                                  const std::vector<double>& overhead,
                                  const std::vector<SetupSample>& setup) {
  const auto med = [&](const std::string& key) {
    std::vector<double> v;
    for (const LayerTotals& t : traced) {
      const auto it = t.find(key);
      v.push_back(it == t.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  const auto med_ratio = [&](const std::string& num, const std::vector<std::string>& den) {
    std::vector<double> v;
    for (const LayerTotals& t : traced) {
      const auto get = [&](const std::string& k) {
        const auto it = t.find(k);
        return it == t.end() ? 0.0 : it->second;
      };
      double d = 0.0;
      for (const auto& k : den) d += get(k);
      v.push_back(ratio(get(num), d));
    }
    return median(v);
  };

  std::vector<Metric> out;
  std::vector<double> scen, cache, cols;
  for (const SetupSample& s : setup) {
    scen.push_back(s.scenario_s);
    cache.push_back(s.cache_s);
    cols.push_back(s.columns_built);
  }
  out.push_back({"setup.scenario_s", median(scen), "s"});
  out.push_back({"setup.cache_s", median(cache), "s"});
  out.push_back({"scenario_cache.columns_built", median(cols), "count"});
  for (const std::string v : {"slrh1", "slrh3"}) {
    out.push_back({v + ".placement.self_s", med(v + ".placement.self_s"), "s"});
    out.push_back({v + ".placement.earliest_start_s", med(v + ".placement.earliest_start_s"), "s"});
    out.push_back({v + ".placement.plans", med(v + ".placement.plans"), "count"});
    out.push_back({v + ".placement.plans_per_commit",
                   med_ratio(v + ".placement.plans", {v + ".slrh.map_decisions"}), "ratio"});
    out.push_back({v + ".pool.build_self_s", med(v + ".pool.build_self_s"), "s"});
    out.push_back({v + ".pool.scoring_s", med(v + ".pool.scoring_s"), "s"});
    out.push_back({v + ".pool.builds", med(v + ".pool.builds"), "count"});
    out.push_back({v + ".sweep.parallel_s", med(v + ".sweep.parallel_s"), "s"});
    out.push_back({v + ".sweep.reuse_ratio",
                   med_ratio(v + ".sweep.reuse_hits",
                             {v + ".sweep.reuse_hits", v + ".pool.builds"}),
                   "ratio"});
    out.push_back({v + ".sweep.spec_aborts", med(v + ".sweep.spec_aborts"), "count"});
    out.push_back({v + ".sweep.spec_abort_ratio",
                   med_ratio(v + ".sweep.spec_aborts", {v + ".sweep.reuse_misses"}),
                   "ratio"});
    out.push_back({v + ".slrh.unattributed_s", med(v + ".slrh.unattributed_s"), "s"});
    out.push_back({v + ".slrh.timesteps", med(v + ".slrh.timesteps"), "count"});
    out.push_back({v + ".slrh.map_decisions", med(v + ".slrh.map_decisions"), "count"});
  }
  out.push_back({"maxmax.select_s", med("maxmax.select_s"), "s"});
  out.push_back({"maxmax.unattributed_s", med("maxmax.unattributed_s"), "s"});
  out.push_back({"maxmax.rounds", med("maxmax.rounds"), "count"});
  out.push_back({"tuner.points", med("tuner.points"), "count"});
  out.push_back({"tuner.slrh1.point_s_p50", med("tuner.slrh1.point_s_p50"), "s"});
  out.push_back({"tuner.slrh3.point_s_p50", med("tuner.slrh3.point_s_p50"), "s"});
  out.push_back({"tuner.maxmax.point_s_p50", med("tuner.maxmax.point_s_p50"), "s"});
  out.push_back({"runner.cell_s", med("runner.cell_s"), "s"});
  out.push_back({"runner.cell_queue_s", med("runner.cell_queue_s"), "s"});
  out.push_back({"runner.pool_utilization", med("runner.pool_utilization"), "ratio"});
  out.push_back({"upper_bound.s", med("upper_bound.s"), "s"});
  out.push_back({"churn.departures", med("churn.departures"), "count"});
  out.push_back({"churn.orphaned", med("churn.orphaned"), "count"});
  out.push_back({"churn.invalidated", med("churn.invalidated"), "count"});
  out.push_back({"churn.recovery_s", med("churn.recovery_s"), "s"});
  out.push_back({"churn.replay_s", med("churn.replay_s"), "s"});
  out.push_back({"trace_overhead_ratio", median(overhead), "ratio"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(opt.workload);
  if (workload == nullptr) usage("unknown workload " + opt.workload);
  ahg::configure_global_pool(workload->workers());

  SpanLog spans;
  const auto pass_seed = [&](std::size_t k) {
    return ahg::derive_seed(opt.seed, static_cast<std::uint64_t>(k));
  };

  std::vector<SetupSample> setup;
  spans.time("setup", [&] {
    for (std::size_t k = 0; k < kSetupSamples; ++k) {
      setup.push_back(workload->setup(pass_seed(k), spans));
    }
  });

  std::vector<PassResult> bare;
  std::vector<LayerTotals> traced;
  std::vector<double> overhead;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  const auto absorb = [&](PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    for (auto& f : p.failures) failures.push_back(std::move(f));
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  for (std::size_t k = 0; k < kMinPasses || elapsed() < opt.seconds; ++k) {
    spans.time("pass", [&] {
      PassResult b = workload->run_pass(pass_seed(k), false, spans);
      absorb(b);
      if (opt.trace) {
        PassResult t = workload->run_pass(pass_seed(k), true, spans);
        absorb(t);
        if (t.digest != b.digest) {
          ++failed;
          failures.push_back("traced pass " + std::to_string(k) +
                             " changed the schedules");
        }
        overhead.push_back(ratio(t.wall_s, b.wall_s));
        traced.push_back(std::move(t.layers));
      }
      bare.push_back(std::move(b));
    });
  }

  // Quality and digest over the first kMinPasses passes only.
  std::uint64_t digest = kFnvOffset;
  std::size_t tasks = 0, t100 = 0, assigned = 0, feasible = 0, outcomes = 0;
  for (std::size_t k = 0; k < kMinPasses; ++k) {
    const PassResult& p = bare[k];
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (p.digest >> shift) & 0xffu;
      digest *= 0x100000001b3ull;
    }
    tasks += p.tasks;
    t100 += p.t100;
    assigned += p.assigned;
    feasible += p.feasible;
    outcomes += p.outcomes;
  }

  std::vector<double> walls, cpus;
  std::array<std::vector<double>, kNumHeuristics> per_pass_median;
  std::array<std::vector<double>, kNumHeuristics> calls;
  for (const PassResult& p : bare) {
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    for (std::size_t h = 0; h < kNumHeuristics; ++h) {
      if (p.call_s[h].empty()) continue;
      per_pass_median[h].push_back(median(p.call_s[h]));
      calls[h].insert(calls[h].end(), p.call_s[h].begin(), p.call_s[h].end());
    }
  }
  std::vector<double> setup_total;
  for (const SetupSample& s : setup) setup_total.push_back(s.scenario_s + s.cache_s);

  std::printf("perfbench %s seed %llu: %zu passes in %.1f s (%zu workers), trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), bare.size(),
              elapsed(), workload->workers(), opt.trace ? 1 : 0);
  std::printf("  pass walls (s):");
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
  const char* heuristic_names[kNumHeuristics] = {"SLRH-1", "SLRH-3", "Max-Max"};
  for (std::size_t h = 0; h < kNumHeuristics; ++h) {
    std::vector<double> sorted = calls[h];
    std::sort(sorted.begin(), sorted.end());
    const double p = reportable_percentile(sorted.size());
    std::printf("  %-7s calls n=%zu median %.6f s", heuristic_names[h], sorted.size(),
                percentile(sorted, 50.0));
    if (p > 50.0) std::printf(", p%g %.6f s", p, percentile(sorted, p));
    std::printf("\n");
  }
  std::printf("digest %s %llu %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(digest));
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  // Schedule quality is deterministic per seed. It is printed, not gated:
  // under churn it swings far more from seed to seed than any bound allows,
  // and the digest already pins every schedule bit for bit.
  const double n_tasks = static_cast<double>(std::max<std::size_t>(tasks, 1));
  std::printf("  quality over passes 0-%zu: t100/|T| %.6f, assigned/|T| %.6f, "
              "feasible %zu/%zu\n",
              kMinPasses - 1, static_cast<double>(t100) / n_tasks,
              static_cast<double>(assigned) / n_tasks, feasible, outcomes);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"setup_s", median(setup_total), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"slrh1_map_s", median(per_pass_median[kSlrh1]), "s"},
        {"slrh3_map_s", median(per_pass_median[kSlrh3]), "s"},
        {"maxmax_map_s", median(per_pass_median[kMaxMax]), "s"},
    };
  } else {
    metrics = layer_metrics(traced, overhead, setup);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  try {
    spans.write_jsonl(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                      ".jsonl");
  } catch (const std::exception& e) {
    std::printf("note: %s\n", e.what());
  }

  ahg::obs::JsonWriter json;
  json.begin_object()
      .field("correct", failed == 0)
      .field("attempted", static_cast<std::uint64_t>(attempted))
      .field("failed", static_cast<std::uint64_t>(failed))
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  json.end_object().end_object();
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
