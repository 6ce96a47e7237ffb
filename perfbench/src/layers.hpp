#pragma once
// Tracing helpers for the benchmark: the benchmark's own spans around each
// public call, a sink that derives placement-plan counts from the decision
// events the heuristics already emit, and the conversion of an SLRH run's phase
// histograms into per-layer self-times whose sum is the call's wall time.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "support/event_log.hpp"
#include "support/metrics.hpp"

namespace perfbench {

/// Per-layer totals of one pass, keyed by the per_layer metric name.
using LayerTotals = std::map<std::string, double>;

/// Spans (name, start, end, parent) recorded around each public call the
/// benchmark makes, kept in memory and written out when the run ends. The
/// benchmark's main loop is single-threaded, so the open-span stack gives each
/// span its parent.
class SpanLog {
 public:
  SpanLog();

  /// Time `fn()` as a span named `name`, child of the innermost open span.
  template <typename F>
  auto time(std::string_view name, F&& fn) {
    const std::size_t id = open(name);
    struct Closer {
      SpanLog* log;
      std::size_t id;
      ~Closer() { log->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Duration of a closed span, in seconds.
  double seconds(std::size_t id) const { return spans_[id].end - spans_[id].start; }
  /// Id of the most recently closed span.
  std::size_t last_closed() const noexcept { return last_closed_; }

  /// One JSON object per line: {"id","name","start_s","end_s","parent"}.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
  };
  std::size_t open(std::string_view name);
  void close(std::size_t id);
  double now() const;

  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::size_t last_closed_ = 0;
};

/// Counts plan_placement calls per SLRH variant from the map and stall
/// events. Every candidate an event lists as chosen ("") or
/// "beyond_horizon" was planned, except a task already proven beyond the
/// horizon earlier in the same (machine, clock) scope: the SLRH loop's memo
/// skips those without planning, so they are counted once per scope.
///
/// Events of one run arrive on the thread that runs it, and a run nested on
/// that thread (work stealing while a parallel_for waits) finishes before
/// the outer run resumes, so a per-thread stack of run states pushed on
/// run_begin and popped on run_end attributes every event to its run.
class PlanCounter final : public ahg::obs::Sink {
 public:
  PlanCounter() noexcept : Sink(nullptr) {}

  void emit(const ahg::obs::Event& event) override;
  bool wants(ahg::obs::EventKind kind) const noexcept override;

  /// Plans counted for one heuristic name ("SLRH-1", "SLRH-3").
  std::uint64_t plans(std::string_view heuristic) const;

 private:
  struct RunState {
    ahg::Cycles clock = -1;
    ahg::MachineId machine = ahg::kInvalidMachine;
    std::unordered_set<ahg::TaskId> beyond_horizon;
  };

  mutable std::mutex mutex_;
  std::map<std::thread::id, std::vector<RunState>> runs_;
  std::map<std::string, std::uint64_t, std::less<>> plans_;
};

/// Add one SLRH call's layers to `totals` under `prefix` ("slrh1", "slrh3").
/// The SLRH histograms nest (pool_build contains scoring, placement
/// contains earliest_start); the speculative fan-out and the inline pool
/// builds and placement walks are disjoint. Self-times are the differences,
/// and whatever of `wall_s` they leave is added to `remainder_key` (the
/// SLRH loop itself for run_slrh, recovery for run_slrh_with_churn), so the
/// call's layers sum to its wall time exactly.
void add_slrh_layers(LayerTotals& totals, const std::string& prefix,
                     const ahg::obs::MetricsSnapshot& phases, double wall_s,
                     const std::string& remainder_key);

/// Add one Max-Max call: selection rounds and their time, remainder to
/// "maxmax.unattributed_s".
void add_maxmax_layers(LayerTotals& totals, const ahg::obs::MetricsSnapshot& phases,
                       double wall_s);

/// Sum of a histogram's observations (0 when absent).
double histogram_sum(const ahg::obs::MetricsSnapshot& snapshot, std::string_view name);
/// A counter's value (0 when absent).
double counter_value(const ahg::obs::MetricsSnapshot& snapshot, std::string_view name);

}  // namespace perfbench
