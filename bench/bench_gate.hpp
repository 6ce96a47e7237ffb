#pragma once
// The bench regression gate (pure logic; bench_check.cpp is the CLI).
//
// A BENCH_<name>.json dump is flattened into a scalar metric map
// ("counter:NAME", "gauge:NAME", "hist_mean:NAME", "hist_count:NAME") and
// compared against a committed baseline with per-metric relative tolerances.
// Wall-clock metrics (any name containing "_seconds") gate upper-bound only —
// getting FASTER is never a regression — and carry a small absolute floor so
// sub-millisecond sections don't flap on scheduler noise. Speedup ratios (any
// name containing "_speedup") gate lower-bound only: a baseline recorded on
// a 1-core host must not flag a 4-core host's larger speedup. Everything else
// (counters, ratios, histogram shapes) gates two-sided: a count that
// silently changes in either direction means the bench measured something
// different, which is exactly what the gate exists to catch.
//
// Baseline files are plain JSON, committed under bench/baselines/, and every
// field is editable by hand — bump one metric's tolerance without touching
// the tool.

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"

namespace ahg::bench {

inline constexpr int kGateSchemaVersion = 1;

enum class GateDirection : std::uint8_t {
  Upper,     ///< regression only when fresh exceeds baseline (wall-clock)
  Lower,     ///< regression only when fresh falls below baseline (speedups)
  TwoSided,  ///< regression when fresh drifts either way (counts, ratios)
};

inline const char* to_string(GateDirection d) noexcept {
  switch (d) {
    case GateDirection::Upper: return "upper";
    case GateDirection::Lower: return "lower";
    case GateDirection::TwoSided: return "two-sided";
  }
  return "?";
}

/// One gated metric in a baseline file.
struct GateMetric {
  double value = 0.0;
  double tolerance = 0.25;  ///< relative, 0.25 = +/-25%
  GateDirection direction = GateDirection::TwoSided;
};

struct GateBaseline {
  std::string bench;  ///< must match the fresh dump's "bench" field
  double default_tolerance = 0.25;
  std::map<std::string, GateMetric> metrics;
};

/// Wall-clock metric names gate Upper, speedup names Lower; everything
/// else TwoSided.
inline GateDirection default_direction(std::string_view key) noexcept {
  if (key.find("_seconds") != std::string_view::npos) return GateDirection::Upper;
  if (key.find("_speedup") != std::string_view::npos) return GateDirection::Lower;
  return GateDirection::TwoSided;
}

/// Flatten a metrics snapshot into the gate's scalar map. Non-finite values
/// (a parallel speedup against a ~0 denominator) are skipped — they cannot
/// be gated with a relative tolerance.
inline std::map<std::string, double> flatten_metrics(const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, double> flat;
  const auto put = [&](std::string key, double value) {
    if (std::isfinite(value)) flat.emplace(std::move(key), value);
  };
  for (const auto& c : snapshot.counters) {
    put("counter:" + c.name, static_cast<double>(c.value));
  }
  for (const auto& g : snapshot.gauges) put("gauge:" + g.name, g.value);
  for (const auto& h : snapshot.histograms) {
    put("hist_mean:" + h.name, h.mean());
    put("hist_count:" + h.name, static_cast<double>(h.count));
  }
  return flat;
}

/// Build a baseline from a fresh snapshot. `seconds_tolerance`, when
/// non-negative, overrides `tolerance` for Upper (wall-clock) metrics —
/// timing baselines recorded on one machine need more headroom than exact
/// counts when checked on another.
inline GateBaseline make_baseline(std::string bench, const obs::MetricsSnapshot& snapshot,
                                  double tolerance = 0.25,
                                  double seconds_tolerance = -1.0) {
  AHG_EXPECTS_MSG(tolerance >= 0.0, "gate tolerance must be non-negative");
  GateBaseline baseline;
  baseline.bench = std::move(bench);
  baseline.default_tolerance = tolerance;
  for (const auto& [key, value] : flatten_metrics(snapshot)) {
    GateMetric metric;
    metric.value = value;
    metric.direction = default_direction(key);
    metric.tolerance = metric.direction == GateDirection::Upper && seconds_tolerance >= 0.0
                           ? seconds_tolerance
                           : tolerance;
    baseline.metrics.emplace(key, metric);
  }
  return baseline;
}

inline void write_baseline(std::ostream& os, const GateBaseline& baseline) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("bench", baseline.bench);
  json.field("gate_schema", static_cast<std::int64_t>(kGateSchemaVersion));
  json.field("default_tolerance", baseline.default_tolerance);
  json.key("metrics");
  json.begin_object();
  for (const auto& [key, metric] : baseline.metrics) {
    json.key(key);
    json.begin_object();
    json.field("value", metric.value);
    json.field("tolerance", metric.tolerance);
    json.field("direction", to_string(metric.direction));
    json.end_object();
  }
  json.end_object();
  json.end_object();
  os << json.str() << "\n";
}

/// Inverse of write_baseline. Throws PreconditionError on a malformed file.
inline GateBaseline parse_baseline(const obs::JsonValue& root) {
  AHG_EXPECTS_MSG(root.is_object(), "gate baseline must be a JSON object");
  GateBaseline baseline;
  baseline.bench = root.get_string("bench");
  baseline.default_tolerance = root.get_double("default_tolerance", 0.25);
  const obs::JsonValue* metrics = root.find("metrics");
  AHG_EXPECTS_MSG(metrics != nullptr && metrics->is_object(),
                  "gate baseline needs a \"metrics\" object");
  for (const auto& [key, entry] : metrics->as_object()) {
    GateMetric metric;
    metric.value = entry.get_double("value");
    metric.tolerance = entry.get_double("tolerance", baseline.default_tolerance);
    const std::string direction = entry.get_string("direction");
    metric.direction = direction == "upper"   ? GateDirection::Upper
                       : direction == "lower" ? GateDirection::Lower
                                              : GateDirection::TwoSided;
    baseline.metrics.emplace(key, metric);
  }
  return baseline;
}

enum class GateVerdict : std::uint8_t {
  Ok,
  Regression,       ///< outside tolerance in a gated direction
  MissingFresh,     ///< baseline metric absent from the fresh dump
  MissingBaseline,  ///< fresh metric the baseline has never seen
};

inline const char* to_string(GateVerdict v) noexcept {
  switch (v) {
    case GateVerdict::Ok: return "ok";
    case GateVerdict::Regression: return "REGRESSION";
    case GateVerdict::MissingFresh: return "MISSING(fresh)";
    case GateVerdict::MissingBaseline: return "MISSING(baseline)";
  }
  return "?";
}

struct GateFinding {
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double tolerance = 0.0;
  GateDirection direction = GateDirection::TwoSided;
  GateVerdict verdict = GateVerdict::Ok;
};

struct GateResult {
  std::vector<GateFinding> findings;  ///< one per metric, sorted by name
  std::size_t regressions = 0;
  std::size_t missing = 0;

  bool ok(bool allow_missing) const noexcept {
    return regressions == 0 && (allow_missing || missing == 0);
  }
};

/// Where a bench's committed baseline lives under `dir`. Shared by the
/// CLI's check and --update modes so they can never disagree on the path.
inline std::string baseline_path(const std::string& dir, const std::string& bench) {
  return dir + "/BENCH_" + bench + ".json";
}

/// Gate verdict for a fresh dump whose baseline file does not exist yet:
/// every fresh metric is MissingBaseline. A brand-new bench then flows
/// through the normal finding machinery — failing by default with an
/// actionable fix (run --update to seed the baseline), tolerated under
/// --allow-missing — instead of dying on a file-open error.
inline GateResult check_without_baseline(const obs::MetricsSnapshot& fresh) {
  GateResult result;
  for (const auto& [key, value] : flatten_metrics(fresh)) {
    GateFinding finding;
    finding.metric = key;
    finding.fresh = value;
    finding.verdict = GateVerdict::MissingBaseline;
    ++result.missing;
    result.findings.push_back(std::move(finding));
  }
  return result;
}

/// Compare a fresh snapshot against a baseline. `seconds_floor` is the
/// absolute slack (in seconds) added on top of the relative tolerance for
/// Upper metrics, so tiny sections don't gate on nanosecond noise.
inline GateResult check_bench(const GateBaseline& baseline,
                              const obs::MetricsSnapshot& fresh,
                              double seconds_floor = 5e-3) {
  GateResult result;
  const std::map<std::string, double> flat = flatten_metrics(fresh);

  for (const auto& [key, metric] : baseline.metrics) {
    GateFinding finding;
    finding.metric = key;
    finding.baseline = metric.value;
    finding.tolerance = metric.tolerance;
    finding.direction = metric.direction;
    const auto it = flat.find(key);
    if (it == flat.end()) {
      finding.verdict = GateVerdict::MissingFresh;
      ++result.missing;
      result.findings.push_back(std::move(finding));
      continue;
    }
    finding.fresh = it->second;
    const double slack = std::abs(metric.value) * metric.tolerance;
    if (metric.direction == GateDirection::Upper) {
      if (finding.fresh > metric.value + slack + seconds_floor) {
        finding.verdict = GateVerdict::Regression;
        ++result.regressions;
      }
    } else if (metric.direction == GateDirection::Lower) {
      if (finding.fresh < metric.value - slack - 1e-12) {
        finding.verdict = GateVerdict::Regression;
        ++result.regressions;
      }
    } else if (std::abs(finding.fresh - metric.value) > slack + 1e-12) {
      finding.verdict = GateVerdict::Regression;
      ++result.regressions;
    }
    result.findings.push_back(std::move(finding));
  }

  for (const auto& [key, value] : flat) {
    if (baseline.metrics.find(key) != baseline.metrics.end()) continue;
    GateFinding finding;
    finding.metric = key;
    finding.fresh = value;
    finding.verdict = GateVerdict::MissingBaseline;
    // A fresh-only wall-clock phase (Upper direction) is a new timing
    // breakdown the baseline predates — e.g. slrh.earliest_start_seconds
    // appearing in dumps gated against a baseline recorded before that
    // sub-phase was timed. It is reported for visibility but cannot hide a
    // regression (the phase rolls up into a gated *_run_seconds total), so
    // it does not fail the gate.
    // Fresh-only TwoSided metrics still count: a new correctness counter
    // the baseline has never seen deserves a deliberate --update.
    if (default_direction(key) != GateDirection::Upper) ++result.missing;
    result.findings.push_back(std::move(finding));
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const GateFinding& a, const GateFinding& b) { return a.metric < b.metric; });
  return result;
}

}  // namespace ahg::bench
