#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "support/contract.hpp"
#include "support/jsonl.hpp"

namespace ahg::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double candidate) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (candidate < expected &&
         !target.compare_exchange_weak(expected, candidate,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double candidate) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (candidate > expected &&
         !target.compare_exchange_weak(expected, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// --- Counter -----------------------------------------------------------------

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  AHG_EXPECTS_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, x);
  detail::atomic_min(min_, x);
  detail::atomic_max(max_, x);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  AHG_EXPECTS_MSG(other.bounds == bounds_,
                  "histogram merge requires identical bucket bounds");
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(other.count, std::memory_order_relaxed);
  detail::atomic_add(sum_, other.sum);
  detail::atomic_min(min_, other.min);
  detail::atomic_max(max_, other.max);
}

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;  // empty: defined zero, never NaN
  if (std::isnan(p)) p = 0.0;  // NaN p clamps like any out-of-range query
  p = std::clamp(p, 0.0, 100.0);
  // Sanitize the observed extremes: a torn snapshot (count is incremented
  // before min/max settle, all relaxed atomics) or a hand-assembled snapshot
  // can carry non-finite or inverted min/max, which would poison the
  // interpolation with NaN. Fall back to the bucket bounds in that case.
  double lo_obs = min;
  double hi_obs = max;
  if (!std::isfinite(lo_obs) || !std::isfinite(hi_obs) || lo_obs > hi_obs) {
    lo_obs = bounds.empty() ? 0.0 : bounds.front();
    hi_obs = bounds.empty() ? 0.0 : bounds.back();
  }
  if (p <= 0.0) return lo_obs;
  if (p >= 100.0) return hi_obs;
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      // Interpolate within [lo, hi) of this bucket, clamped to observations.
      const double lo = i == 0 ? lo_obs : std::max(lo_obs, bounds[i - 1]);
      const double hi = i < bounds.size() ? std::min(hi_obs, bounds[i]) : hi_obs;
      const double into =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return std::clamp(lo + (hi - lo) * std::clamp(into, 0.0, 1.0), lo_obs,
                        hi_obs);
    }
    seen += in_bucket;
  }
  return hi_obs;
}

// --- MetricsSnapshot ---------------------------------------------------------

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  JsonWriter json;
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& c : counters) json.field(c.name, c.value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& g : gauges) json.field(g.name, g.value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& h : histograms) {
    json.key(h.name).begin_object();
    json.field("count", h.count)
        .field("sum", h.sum)
        .field("mean", h.mean())
        .field("min", h.min)
        .field("max", h.max)
        .field("p50", h.percentile(50.0))
        .field("p95", h.percentile(95.0))
        .field("p99", h.percentile(99.0));
    json.key("bounds").begin_array();
    for (const double b : h.bounds) json.value(b);
    json.end_array();
    json.key("buckets").begin_array();
    for (const std::uint64_t b : h.buckets) json.value(b);
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.end_object();
  os << json.str();
}

namespace {

/// A counter, histogram count or bucket: non-negative and, being a JSON
/// number, exact only up to 2^53. A negative would wrap to ~2^64 if cast.
std::uint64_t read_count(const JsonValue* value, std::string_view field) {
  constexpr std::int64_t kMaxCount = std::int64_t{1} << 53;
  return static_cast<std::uint64_t>(checked_int(value, field, 0, kMaxCount));
}

}  // namespace

MetricsSnapshot snapshot_from_json(const JsonValue& value) {
  AHG_EXPECTS_MSG(value.is_object(), "metrics snapshot JSON must be an object");
  MetricsSnapshot snap;
  if (const JsonValue* counters = value.find("counters")) {
    AHG_EXPECTS_MSG(counters->is_object(), "\"counters\" must be an object");
    for (const auto& [name, v] : counters->as_object()) {
      snap.counters.push_back(CounterSnapshot{name, read_count(&v, name)});
    }
  }
  if (const JsonValue* gauges = value.find("gauges")) {
    AHG_EXPECTS_MSG(gauges->is_object(), "\"gauges\" must be an object");
    for (const auto& [name, v] : gauges->as_object()) {
      snap.gauges.push_back(GaugeSnapshot{name, v.as_double()});
    }
  }
  if (const JsonValue* histograms = value.find("histograms")) {
    AHG_EXPECTS_MSG(histograms->is_object(), "\"histograms\" must be an object");
    for (const auto& [name, v] : histograms->as_object()) {
      AHG_EXPECTS_MSG(v.is_object(), "histogram entry must be an object");
      HistogramSnapshot h;
      h.name = name;
      h.count = read_count(v.find("count"), "count");
      h.sum = v.get_double("sum");
      h.min = v.get_double("min");
      h.max = v.get_double("max");
      const JsonValue* bounds = v.find("bounds");
      const JsonValue* buckets = v.find("buckets");
      AHG_EXPECTS_MSG(bounds != nullptr && bounds->is_array() &&
                          buckets != nullptr && buckets->is_array(),
                      "histogram entry needs bounds + buckets arrays");
      for (const auto& b : bounds->as_array()) h.bounds.push_back(b.as_double());
      for (const auto& b : buckets->as_array()) {
        h.buckets.push_back(read_count(&b, "buckets"));
      }
      AHG_EXPECTS_MSG(h.buckets.size() == h.bounds.size() + 1,
                      "histogram buckets must be bounds + overflow");
      snap.histograms.push_back(std::move(h));
    }
  }
  // std::map iteration already yields name order, matching write_json.
  return snap;
}

// --- MetricsRegistry ---------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(bounds.begin(), bounds.end())))
             .first;
  } else {
    AHG_EXPECTS_MSG(std::equal(bounds.begin(), bounds.end(),
                               it->second->bounds().begin(),
                               it->second->bounds().end()),
                    "histogram re-registered with different bounds");
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeSnapshot{name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->snapshot();
    h.name = name;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::merge(const MetricsSnapshot& other) {
  std::uint64_t conflicts = 0;
  {
    std::lock_guard lock(mutex_);
    for (const auto& c : other.counters) {
      if (gauges_.find(c.name) != gauges_.end() ||
          histograms_.find(c.name) != histograms_.end()) {
        ++conflicts;
        continue;
      }
      auto it = counters_.find(c.name);
      if (it == counters_.end()) {
        it = counters_.emplace(c.name, std::make_unique<Counter>()).first;
      }
      it->second->add(c.value);
    }
    for (const auto& g : other.gauges) {
      if (counters_.find(g.name) != counters_.end() ||
          histograms_.find(g.name) != histograms_.end()) {
        ++conflicts;
        continue;
      }
      auto it = gauges_.find(g.name);
      if (it == gauges_.end()) {
        it = gauges_.emplace(g.name, std::make_unique<Gauge>()).first;
      }
      it->second->set(g.value);
    }
    for (const auto& h : other.histograms) {
      if (counters_.find(h.name) != counters_.end() ||
          gauges_.find(h.name) != gauges_.end()) {
        ++conflicts;
        continue;
      }
      auto it = histograms_.find(h.name);
      if (it == histograms_.end()) {
        it = histograms_.emplace(h.name, std::make_unique<Histogram>(h.bounds))
                 .first;
      } else if (!std::equal(h.bounds.begin(), h.bounds.end(),
                             it->second->bounds().begin(),
                             it->second->bounds().end())) {
        ++conflicts;
        continue;
      }
      it->second->merge(h);
    }
  }
  if (conflicts > 0) counter("obs.merge_conflicts").add(conflicts);
}

}  // namespace ahg::obs
