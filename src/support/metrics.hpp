#pragma once
// Metrics registry for the observability layer (ahg::obs): counters, gauges,
// and fixed-bucket histograms.
//
// Design constraints (see DESIGN.md "Observability"):
//  - cheap when disabled: heuristics hold nullable handles; a null handle
//    costs one branch and no clock read, so an un-instrumented run is
//    indistinguishable from the pre-telemetry code path;
//  - thread-safe on the hot path without contention: counters shard their
//    storage across cache-line-padded atomic slots (thread_pool workers land
//    on different shards), histograms use relaxed atomics per bucket;
//  - reducible: registries merge() like `Accumulator`, so per-case or
//    per-worker registries can be folded into a session-wide one;
//  - deterministic outputs untouched: metrics only observe, never steer.
//
// Name lookup (registry map + mutex) is NOT hot-path: resolve handles once
// per run, then add()/observe() through them.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ahg::obs {

class JsonValue;

namespace detail {
/// Sharded-slot count; a power of two so the thread index wraps cheaply.
inline constexpr std::size_t kShards = 16;

/// Small dense per-thread index (0, 1, 2, ...) for shard selection.
std::size_t shard_index() noexcept;

/// Lock-free add/min/max on atomic<double> via CAS (portable to libstdc++
/// versions without atomic<double>::fetch_add).
void atomic_add(std::atomic<double>& target, double delta) noexcept;
void atomic_min(std::atomic<double>& target, double candidate) noexcept;
void atomic_max(std::atomic<double>& target, double candidate) noexcept;
}  // namespace detail

/// Monotonic counter with cache-line-padded shards.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[detail::shard_index() % detail::kShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[detail::kShards];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Copyable point-in-time view of a histogram (also the merge/report unit).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          ///< ascending bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;

  double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Bucket-interpolated percentile. Never returns NaN: p is clamped to
  /// [0, 100] (NaN p clamps to 0), an empty histogram returns 0, and
  /// non-finite/inverted min/max (a torn relaxed-atomics snapshot) fall back
  /// to the bucket bounds. p<=0 returns the observed min, p>=100 the max.
  double percentile(double p) const noexcept;
};

/// Fixed-bucket histogram: values <= bounds[i] land in bucket i, larger ones
/// in the overflow bucket. observe() is wait-free (relaxed atomics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  std::span<const double> bounds() const noexcept { return bounds_; }
  std::uint64_t count() const noexcept;
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot snapshot() const;  ///< name field left empty

  /// Fold another histogram's observations into this one. Requires
  /// identical bucket bounds.
  void merge(const HistogramSnapshot& other);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Copyable registry snapshot: what summaries and benches carry around.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;    ///< sorted by name
  std::vector<GaugeSnapshot> gauges;        ///< sorted by name
  std::vector<HistogramSnapshot> histograms;  ///< sorted by name

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  const CounterSnapshot* find_counter(std::string_view name) const noexcept;
  const HistogramSnapshot* find_histogram(std::string_view name) const noexcept;

  /// Serialize as one JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,mean,min,max,p50,p95,buckets:[...]}}}.
  void write_json(std::ostream& os) const;
};

/// Rebuild a snapshot from its write_json form — the inverse used by the
/// bench result cache to restore persisted phase metrics. Doubles survive
/// exactly (write_json emits shortest-round-trip std::to_chars), bounds and
/// buckets are restored verbatim, so the result merges back into live
/// registries like any fresh snapshot. Throws PreconditionError when the
/// shape is not a metrics object or a counter, histogram count or bucket is
/// not an integer in [0, 2^53].
MetricsSnapshot snapshot_from_json(const JsonValue& value);

/// Named-metric registry. counter()/gauge()/histogram() create on first use
/// and return stable references (safe to cache across threads); all methods
/// are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is consulted only on first creation; later calls for the same
  /// name must pass identical bounds (contract-checked).
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  MetricsSnapshot snapshot() const;

  /// Fold a snapshot into this registry (counters add, gauges last-write,
  /// histograms merge bucket-wise). The reduction mirror of Accumulator::merge.
  /// Conflicting entries — a name registered here as a different metric kind,
  /// or a histogram arriving with different bucket bounds — are SKIPPED
  /// instead of silently clobbering or aborting, and each skip increments the
  /// "obs.merge_conflicts" counter so the loss is visible in snapshots.
  void merge(const MetricsSnapshot& other);
  void merge(const MetricsRegistry& other) { merge(other.snapshot()); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ahg::obs
