#pragma once
// Content-addressed on-disk cache for evaluation-matrix cells.
//
// The figure benches all tune the same (grid case x heuristic x scenario)
// grid; at REPRO_SCALE=paper one cell costs minutes. This cache keys each
// finished CaseHeuristicSummary by an FNV-1a hash over EVERYTHING that
// determines its content — scenario-suite parameters (including the
// generator knobs), tuner parameters, SLRH clock, grid case, heuristic, and
// the code-schema version (ahg::kBenchCacheSchema) — so a re-run of any
// bench skips already-solved cells and the combined bench_eval_all pass is
// incremental. Changing any input (REPRO_SCALE, REPRO_SEED, tuner steps)
// changes the key; changing solver behaviour must bump kBenchCacheSchema.
//
// What survives a round trip: per-scenario tuned outcomes (alpha, beta,
// T100, AET, TEC, wall time, feasibility, upper bound), the summary
// accumulators (replayed through core::accumulate_scenario in stored order,
// so they are bit-identical to the freshly computed ones), and the phase
// metrics snapshot. What does not: schedules and the tuner's per-point
// probe list — no figure reads those from a matrix cell. Loads never trust
// the file: any parse error or schema/identity mismatch is a miss and the
// cell is recomputed.
//
// Writes are atomic (temp file + rename), so concurrent bench processes
// sharing one cache directory can only ever observe complete entries.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/runner.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::bench {

inline constexpr const char* kDefaultCacheDir = ".bench_cache";

/// FNV-1a 64-bit over a canonical key string. Stable across platforms and
/// runs — the content address of a cell.
inline std::uint64_t fnv1a_64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Everything outside the (case, heuristic) coordinates that a cell's
/// content depends on.
struct CellKeyParams {
  workload::SuiteParams suite;
  core::TunerParams tuner;
  core::SlrhClock clock;
};

/// The canonical (human-readable) key text; hashed by cell_key(). Doubles
/// are printed with shortest-round-trip precision so distinct parameters
/// never collide by formatting.
inline std::string cell_key_text(const CellKeyParams& p, sim::GridCase grid_case,
                                 core::HeuristicKind heuristic) {
  std::ostringstream oss;
  oss.precision(17);
  const auto& s = p.suite;
  const auto& e = s.etc_params;
  const auto& d = s.data_params;
  oss << "cache_schema=" << kBenchCacheSchema
      << ";tasks=" << s.num_tasks << ";etc=" << s.num_etc << ";dag=" << s.num_dag
      << ";seed=" << s.master_seed << ";tau1024=" << s.tau_seconds_at_1024
      << ";scale_batt=" << s.scale_batteries_with_tasks
      << ";etcgen=" << e.task_mean_seconds << "," << e.task_cv << ","
      << e.machine_cv << "," << e.speed_ratio_mean << "," << e.speed_ratio_cv << ","
      << e.speed_ratio_min << "," << e.speed_ratio_max << "," << e.min_task_seconds
      << ";data=" << d.mean_bits << "," << d.cv << "," << d.min_bits
      << ";tuner=" << p.tuner.coarse_step << "," << p.tuner.fine_step
      << ";clock=" << p.clock.dt << "," << p.clock.horizon
      << ";case=" << sim::to_string(grid_case)
      << ";heuristic=" << core::to_string(heuristic);
  return oss.str();
}

inline std::uint64_t cell_key(const CellKeyParams& p, sim::GridCase grid_case,
                              core::HeuristicKind heuristic) {
  return fnv1a_64(cell_key_text(p, grid_case, heuristic));
}

class CellCache {
 public:
  /// A disabled cache never loads nor stores — callers need no branches.
  explicit CellCache(std::string dir = kDefaultCacheDir, bool enabled = true)
      : dir_(std::move(dir)), enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  const std::string& dir() const noexcept { return dir_; }
  std::size_t hits() const noexcept { return hits_; }
  std::size_t misses() const noexcept { return misses_; }

  /// Look a cell up; nullopt (counted as a miss) when absent, unreadable,
  /// or written by a different schema/build.
  std::optional<core::CaseHeuristicSummary> load(std::uint64_t key,
                                                 sim::GridCase grid_case,
                                                 core::HeuristicKind heuristic) {
    if (!enabled_) return std::nullopt;
    std::ifstream is(entry_path(key));
    if (!is) {
      ++misses_;
      return std::nullopt;
    }
    try {
      std::ostringstream buffer;
      buffer << is.rdbuf();
      auto summary = deserialize(buffer.str(), grid_case, heuristic);
      ++hits_;
      return summary;
    } catch (const std::exception&) {
      ++misses_;  // corrupt or stale-schema entry: recompute and overwrite
      return std::nullopt;
    }
  }

  /// Persist a freshly computed cell. Atomic: the entry appears complete or
  /// not at all. Errors (read-only dir, full disk) are swallowed — caching
  /// is an optimization, never a correctness dependency.
  void store(std::uint64_t key, const core::CaseHeuristicSummary& summary) {
    if (!enabled_) return;
    try {
      std::filesystem::create_directories(dir_);
      const std::filesystem::path final_path = entry_path(key);
      const std::filesystem::path tmp_path =
          final_path.string() + ".tmp." +
          std::to_string(std::chrono::steady_clock::now().time_since_epoch().count());
      {
        std::ofstream os(tmp_path);
        if (!os) return;
        os << serialize(summary);
      }
      std::filesystem::rename(tmp_path, final_path);
    } catch (const std::exception&) {
      // best-effort only
    }
  }

  /// Serialize one summary as a single JSON object (exposed for tests).
  static std::string serialize(const core::CaseHeuristicSummary& summary) {
    obs::JsonWriter json;
    json.begin_object();
    json.field("cache_schema", kBenchCacheSchema);
    json.field("version", kProjectVersion);
    json.field("case", sim::to_string(summary.grid_case));
    json.field("heuristic", core::to_string(summary.heuristic));
    json.key("scenarios").begin_array();
    for (const auto& eval : summary.scenarios) {
      json.begin_object();
      json.field("etc", static_cast<std::uint64_t>(eval.etc_index));
      json.field("dag", static_cast<std::uint64_t>(eval.dag_index));
      json.field("bound", static_cast<std::uint64_t>(eval.upper_bound));
      json.field("found", eval.tune.found);
      json.field("alpha", eval.tune.alpha);
      json.field("beta", eval.tune.beta);
      const auto& best = eval.tune.best;
      json.field("complete", best.complete);
      json.field("within_tau", best.within_tau);
      json.field("t100", static_cast<std::uint64_t>(best.t100));
      json.field("assigned", static_cast<std::uint64_t>(best.assigned));
      json.field("aet", static_cast<std::int64_t>(best.aet));
      json.field("tec", best.tec);
      json.field("wall_seconds", best.wall_seconds);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    // Phase metrics ride along via the standard snapshot JSON (doubles
    // round-trip exactly). Spliced in as a raw member — JsonWriter builds
    // one complete value, so the outer object is finished first and
    // reopened textually.
    std::ostringstream phases;
    summary.phases.write_json(phases);
    std::string out = json.str();
    out.pop_back();  // drop the closing '}'
    out += ",\"phases\":";
    out += phases.str();
    out += "}\n";
    return out;
  }

  /// Parse + rebuild (exposed for tests). Throws PreconditionError on any
  /// shape mismatch or out-of-range count (load treats it as a miss).
  static core::CaseHeuristicSummary deserialize(const std::string& text,
                                                sim::GridCase grid_case,
                                                core::HeuristicKind heuristic) {
    const obs::JsonValue root = obs::parse_json(text);
    AHG_EXPECTS_MSG(root.is_object(), "cache entry must be a JSON object");
    AHG_EXPECTS_MSG(root.get_int("cache_schema") == kBenchCacheSchema,
                    "cache entry written by another schema");
    AHG_EXPECTS_MSG(root.get_string("case") == sim::to_string(grid_case) &&
                        root.get_string("heuristic") == core::to_string(heuristic),
                    "cache entry identity mismatch (hash collision?)");

    core::CaseHeuristicSummary summary;
    summary.grid_case = grid_case;
    summary.heuristic = heuristic;
    const obs::JsonValue* scenarios = root.find("scenarios");
    AHG_EXPECTS_MSG(scenarios != nullptr && scenarios->is_array(),
                    "cache entry needs a scenarios array");
    // Indices and subtask counts fit a TaskId; the AET is a cycle count,
    // exact as a JSON number up to 2^53.
    constexpr std::int64_t kMaxCount = std::numeric_limits<TaskId>::max();
    constexpr std::int64_t kMaxCycles = std::int64_t{1} << 53;
    for (const auto& s : scenarios->as_array()) {
      AHG_EXPECTS_MSG(s.is_object(), "cache entry scenarios must be objects");
      const auto count = [&](std::string_view field) {
        return static_cast<std::size_t>(obs::checked_int(s.find(field), field, 0, kMaxCount));
      };
      core::ScenarioEvaluation eval;
      eval.etc_index = count("etc");
      eval.dag_index = count("dag");
      eval.upper_bound = count("bound");
      eval.tune.found = s.get_bool("found");
      eval.tune.alpha = s.get_double("alpha");
      eval.tune.beta = s.get_double("beta");
      auto& best = eval.tune.best;
      best.complete = s.get_bool("complete");
      best.within_tau = s.get_bool("within_tau");
      best.t100 = count("t100");
      best.assigned = count("assigned");
      best.aet = obs::checked_int(s.find("aet"), "aet", 0, kMaxCycles);
      best.tec = s.get_double("tec");
      best.wall_seconds = s.get_double("wall_seconds");
      // Replaying the shared aggregation path in stored (etc-major) order
      // reproduces the accumulators bit for bit.
      core::accumulate_scenario(summary, eval);
      summary.scenarios.push_back(std::move(eval));
    }
    if (const obs::JsonValue* phases = root.find("phases")) {
      summary.phases = obs::snapshot_from_json(*phases);
    }
    return summary;
  }

 private:
  std::filesystem::path entry_path(std::uint64_t key) const {
    std::ostringstream name;
    name << std::hex << key;
    return std::filesystem::path(dir_) / (name.str() + ".json");
  }

  std::string dir_;
  bool enabled_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace ahg::bench
