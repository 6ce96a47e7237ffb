#include "layers.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "support/jsonl.hpp"

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanLog::SpanLog() : origin_ns_(steady_ns()) {}

double SpanLog::now() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

std::size_t SpanLog::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start = now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  spans_[id].end = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  last_closed_ = id;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    ahg::obs::JsonWriter json;
    json.begin_object()
        .field("id", static_cast<std::uint64_t>(i))
        .field("name", spans_[i].name)
        .field("start_s", spans_[i].start)
        .field("end_s", spans_[i].end)
        .field("parent", spans_[i].parent)
        .end_object();
    out << json.str() << '\n';
  }
}

bool PlanCounter::wants(ahg::obs::EventKind kind) const noexcept {
  using ahg::obs::EventKind;
  return kind == EventKind::RunBegin || kind == EventKind::RunEnd ||
         kind == EventKind::MapDecision || kind == EventKind::Stall;
}

void PlanCounter::emit(const ahg::obs::Event& event) {
  using ahg::obs::EventKind;
  std::lock_guard lock(mutex_);
  std::vector<RunState>& stack = runs_[std::this_thread::get_id()];
  if (event.kind == EventKind::RunBegin) {
    stack.emplace_back();
    return;
  }
  if (event.kind == EventKind::RunEnd) {
    if (!stack.empty()) stack.pop_back();
    return;
  }
  if (event.heuristic.rfind("SLRH", 0) != 0) return;
  if (stack.empty()) stack.emplace_back();
  RunState& run = stack.back();
  if (event.clock != run.clock || event.machine != run.machine) {
    run.clock = event.clock;
    run.machine = event.machine;
    run.beyond_horizon.clear();
  }
  auto it = plans_.find(event.heuristic);
  if (it == plans_.end()) it = plans_.emplace(event.heuristic, 0).first;
  for (const ahg::obs::CandidateTrace& cand : event.candidates) {
    if (cand.reject.empty() || (cand.reject == "beyond_horizon" &&
                                run.beyond_horizon.insert(cand.task).second)) {
      ++it->second;
    }
  }
}

std::uint64_t PlanCounter::plans(std::string_view heuristic) const {
  std::lock_guard lock(mutex_);
  const auto it = plans_.find(heuristic);
  return it == plans_.end() ? 0 : it->second;
}

double histogram_sum(const ahg::obs::MetricsSnapshot& snapshot, std::string_view name) {
  const auto* h = snapshot.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

double counter_value(const ahg::obs::MetricsSnapshot& snapshot, std::string_view name) {
  const auto* c = snapshot.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value) : 0.0;
}

void add_slrh_layers(LayerTotals& totals, const std::string& prefix,
                     const ahg::obs::MetricsSnapshot& phases, double wall_s,
                     const std::string& remainder_key) {
  const double pool_build = histogram_sum(phases, "slrh.pool_build_seconds");
  const double scoring = histogram_sum(phases, "slrh.scoring_seconds");
  const double placement = histogram_sum(phases, "slrh.placement_seconds");
  const double earliest = histogram_sum(phases, "slrh.earliest_start_seconds");
  const double sweep = histogram_sum(phases, "slrh.sweep_parallel_seconds");
  const double remainder = wall_s - pool_build - placement - sweep;

  totals[prefix + ".pool.scoring_s"] += scoring;
  totals[prefix + ".pool.build_self_s"] += pool_build - scoring;
  totals[prefix + ".placement.earliest_start_s"] += earliest;
  totals[prefix + ".placement.self_s"] += placement - earliest;
  totals[prefix + ".sweep.parallel_s"] += sweep;
  totals[remainder_key] += remainder;

  totals[prefix + ".pool.builds"] += counter_value(phases, "slrh.pools_built");
  totals[prefix + ".slrh.timesteps"] += counter_value(phases, "slrh.timesteps");
  totals[prefix + ".slrh.map_decisions"] += counter_value(phases, "slrh.map_decisions");
  totals[prefix + ".sweep.reuse_hits"] += counter_value(phases, "slrh.pool_reuse_hits");
  totals[prefix + ".sweep.reuse_misses"] +=
      counter_value(phases, "slrh.pool_reuse_misses");
  totals[prefix + ".sweep.spec_aborts"] += counter_value(phases, "slrh.spec_aborts");
}

void add_maxmax_layers(LayerTotals& totals, const ahg::obs::MetricsSnapshot& phases,
                       double wall_s) {
  const double select = histogram_sum(phases, "maxmax.select_seconds");
  totals["maxmax.select_s"] += select;
  totals["maxmax.unattributed_s"] += wall_s - select;
  totals["maxmax.rounds"] += counter_value(phases, "maxmax.rounds");
}

}  // namespace perfbench
