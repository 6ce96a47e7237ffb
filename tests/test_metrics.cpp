// Unit tests for the ahg::obs metrics registry: counter / gauge / histogram
// semantics, percentile edge cases, snapshot + JSON output, and the
// cross-thread merge paths the thread-pool-driven tuner relies on.

#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "support/contract.hpp"
#include "support/jsonl.hpp"
#include "support/thread_pool.hpp"
#include "tests/byte_mutation.hpp"

namespace {

using namespace ahg;
using obs::MetricsRegistry;

const std::vector<double> kBounds = {1.0, 2.0, 5.0, 10.0};

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  obs::Counter counter;
  constexpr std::size_t kItems = 10000;
  global_pool().parallel_for(0, kItems, [&](std::size_t) { counter.add(); });
  EXPECT_EQ(counter.value(), kItems);
}

TEST(Gauge, LastWriteWins) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(Histogram, BucketsByUpperBound) {
  obs::Histogram hist(kBounds);
  // On-boundary values land in the bucket whose upper bound they equal.
  for (const double x : {0.5, 1.0, 1.5, 5.0, 7.0, 100.0}) hist.observe(x);

  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.buckets.size(), kBounds.size() + 1);
  EXPECT_EQ(snap.buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(snap.buckets[1], 1u);  // 1.5
  EXPECT_EQ(snap.buckets[2], 1u);  // 5.0
  EXPECT_EQ(snap.buckets[3], 1u);  // 7.0
  EXPECT_EQ(snap.buckets[4], 1u);  // 100.0 overflow
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 5.0 + 7.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean(), snap.sum / 6.0);
}

TEST(Histogram, PercentileEdges) {
  obs::Histogram empty(kBounds);
  EXPECT_EQ(empty.snapshot().percentile(50.0), 0.0);

  obs::Histogram one(kBounds);
  one.observe(3.0);
  const auto single = one.snapshot();
  // A single observation pins every percentile to it (min == max clamp).
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(single.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(single.percentile(100.0), 3.0);

  obs::Histogram hist(kBounds);
  for (int i = 0; i < 100; ++i) hist.observe(0.5);  // bucket 0
  hist.observe(100.0);                              // overflow
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 0.5);
  // The overflow bucket has no upper bound: percentiles falling there report
  // the observed max.
  EXPECT_DOUBLE_EQ(snap.percentile(100.0), 100.0);
  EXPECT_LE(snap.percentile(50.0), 1.0);  // inside bucket 0
  EXPECT_GE(snap.percentile(50.0), 0.5);  // clamped at observed min
}

TEST(Histogram, PercentileNeverNan) {
  // Hostile queries and hostile snapshots must both produce finite values:
  // out-of-range p clamps, NaN p behaves like p=0, and a snapshot carrying
  // torn (non-finite or inverted) min/max falls back to the bucket bounds.
  obs::Histogram hist(kBounds);
  hist.observe(0.5);
  hist.observe(7.0);
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(-10.0), snap.percentile(0.0));
  EXPECT_DOUBLE_EQ(snap.percentile(250.0), snap.percentile(100.0));
  EXPECT_DOUBLE_EQ(snap.percentile(std::nan("")), snap.percentile(0.0));

  obs::HistogramSnapshot torn = snap;
  torn.min = std::numeric_limits<double>::quiet_NaN();
  torn.max = std::numeric_limits<double>::infinity();
  for (double p = 0.0; p <= 100.0; p += 12.5) {
    EXPECT_TRUE(std::isfinite(torn.percentile(p))) << "p=" << p;
  }
  obs::HistogramSnapshot inverted = snap;
  inverted.min = 9.0;
  inverted.max = 1.0;  // min > max: sanitized to the bound range
  for (double p = 0.0; p <= 100.0; p += 12.5) {
    EXPECT_TRUE(std::isfinite(inverted.percentile(p))) << "p=" << p;
  }
}

TEST(Histogram, PercentileMonotoneAcrossBuckets) {
  obs::Histogram hist(kBounds);
  for (int i = 0; i < 10; ++i) {
    hist.observe(0.5);
    hist.observe(1.5);
    hist.observe(3.0);
    hist.observe(7.0);
  }
  const auto snap = hist.snapshot();
  double prev = snap.percentile(0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double v = snap.percentile(p);
    EXPECT_GE(v, prev) << "percentile not monotone at p=" << p;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(snap.percentile(100.0), 7.0);
}

TEST(Histogram, ConcurrentObservesAreLossless) {
  obs::Histogram hist(kBounds);
  constexpr std::size_t kItems = 10000;
  global_pool().parallel_for(0, kItems, [&](std::size_t i) {
    hist.observe(static_cast<double>(i % 12));
  });
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, kItems);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kItems);
}

TEST(Histogram, MergeCombinesAndRejectsMismatchedBounds) {
  obs::Histogram a(kBounds);
  obs::Histogram b(kBounds);
  a.observe(0.5);
  a.observe(7.0);
  b.observe(1.5);
  b.observe(100.0);

  a.merge(b.snapshot());
  const auto snap = a.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[4], 1u);

  // Merging an empty snapshot is a no-op even when bounds differ.
  obs::Histogram other(std::vector<double>{1.0, 2.0});
  EXPECT_NO_THROW(a.merge(other.snapshot()));
  EXPECT_EQ(a.snapshot().count, 4u);
  other.observe(1.5);
  EXPECT_THROW(a.merge(other.snapshot()), PreconditionError);
}

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("runs");
  obs::Counter& c2 = registry.counter("runs");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(registry.counter("runs").value(), 3u);

  obs::Histogram& h1 = registry.histogram("lat", kBounds);
  EXPECT_EQ(&h1, &registry.histogram("lat", kBounds));
  const std::vector<double> different = {1.0};
  EXPECT_THROW(registry.histogram("lat", different), PreconditionError);
}

TEST(MetricsRegistry, SnapshotSortedAndSearchable) {
  MetricsRegistry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("g").set(0.5);
  registry.histogram("h", kBounds).observe(3.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_NE(snap.find_counter("z.last"), nullptr);
  EXPECT_EQ(snap.find_counter("z.last")->value, 1u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_histogram("h"), nullptr);
  EXPECT_EQ(snap.find_histogram("h")->count, 1u);
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsRegistry, MergeMirrorsAccumulator) {
  // Shard work across per-worker registries, then reduce — the pattern the
  // runner uses per case and benches use per run.
  MetricsRegistry total;
  constexpr std::size_t kWorkers = 4;
  std::vector<std::unique_ptr<MetricsRegistry>> partials;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    partials.push_back(std::make_unique<MetricsRegistry>());
    partials.back()->counter("ops").add(10 * (w + 1));
    partials.back()->gauge("last").set(static_cast<double>(w));
    auto& h = partials.back()->histogram("lat", kBounds);
    h.observe(static_cast<double>(w) + 0.5);
  }
  for (const auto& p : partials) total.merge(*p);

  const auto snap = total.snapshot();
  EXPECT_EQ(snap.find_counter("ops")->value, 10u + 20u + 30u + 40u);
  const auto* lat = snap.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, kWorkers);
  EXPECT_DOUBLE_EQ(lat->min, 0.5);
  EXPECT_DOUBLE_EQ(lat->max, 3.5);
}

TEST(MetricsRegistry, MergeConflictsAreCountedNotFatal) {
  // A shard that registered "x" as a gauge while the total holds a counter
  // "x" must not corrupt either metric: the conflicting entry is skipped and
  // the collision is surfaced through the obs.merge_conflicts counter so a
  // snapshot consumer can notice the naming bug.
  MetricsRegistry total;
  total.counter("x").add(5);
  total.histogram("lat", kBounds).observe(1.0);

  MetricsRegistry shard;
  shard.gauge("x").set(9.0);                                    // type clash
  shard.histogram("lat", std::vector<double>{1.0}).observe(0.5);  // bounds clash
  shard.counter("ok").add(2);
  total.merge(shard.snapshot());

  const auto snap = total.snapshot();
  EXPECT_EQ(snap.find_counter("x")->value, 5u);  // untouched
  EXPECT_EQ(snap.find_histogram("lat")->count, 1u);
  EXPECT_EQ(snap.find_counter("ok")->value, 2u);  // clean entries still merge
  ASSERT_NE(snap.find_counter("obs.merge_conflicts"), nullptr);
  EXPECT_EQ(snap.find_counter("obs.merge_conflicts")->value, 2u);

  // Conflict-free merges leave the tally alone (and don't create it).
  MetricsRegistry clean_total;
  clean_total.merge(shard.snapshot());
  EXPECT_EQ(clean_total.snapshot().find_counter("obs.merge_conflicts"), nullptr);
}

TEST(MetricsSnapshot, WriteJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("runs").add(7);
  registry.gauge("load").set(0.75);
  auto& hist = registry.histogram("lat", kBounds);
  hist.observe(0.5);
  hist.observe(7.0);

  std::ostringstream os;
  registry.snapshot().write_json(os);
  const obs::JsonValue doc = obs::parse_json(os.str());

  const obs::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_int("runs"), 7);
  const obs::JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->get_double("load"), 0.75);
  const obs::JsonValue* lat = doc.find("histograms")->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->get_int("count"), 2);
  EXPECT_DOUBLE_EQ(lat->get_double("sum"), 7.5);
  ASSERT_TRUE(lat->find("buckets")->is_array());
  EXPECT_EQ(lat->find("buckets")->as_array().size(), kBounds.size() + 1);
}

TEST(MetricsSnapshot, SnapshotFromJsonIsLossless) {
  // write_json -> parse -> snapshot_from_json must reproduce the snapshot
  // exactly (the bench result cache persists phase metrics through this
  // path). Doubles survive because the writer emits shortest-round-trip
  // form.
  MetricsRegistry registry;
  registry.counter("runs").add(7);
  registry.gauge("load").set(0.7500001220703125);
  auto& hist = registry.histogram("lat", kBounds);
  hist.observe(0.4999999999999999);
  hist.observe(7.0);
  const obs::MetricsSnapshot before = registry.snapshot();

  std::ostringstream os;
  before.write_json(os);
  const obs::MetricsSnapshot after = obs::snapshot_from_json(obs::parse_json(os.str()));

  ASSERT_EQ(after.counters.size(), before.counters.size());
  EXPECT_EQ(after.counters[0].name, before.counters[0].name);
  EXPECT_EQ(after.counters[0].value, before.counters[0].value);
  ASSERT_EQ(after.gauges.size(), before.gauges.size());
  EXPECT_EQ(after.gauges[0].value, before.gauges[0].value);  // exact
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  const auto& x = before.histograms[0];
  const auto& y = after.histograms[0];
  EXPECT_EQ(y.name, x.name);
  EXPECT_EQ(y.count, x.count);
  EXPECT_EQ(y.sum, x.sum);  // exact
  EXPECT_EQ(y.min, x.min);
  EXPECT_EQ(y.max, x.max);
  EXPECT_EQ(y.bounds, x.bounds);
  EXPECT_EQ(y.buckets, x.buckets);

  // A merge of the round-tripped snapshot behaves exactly like a merge of
  // the original.
  MetricsRegistry a;
  MetricsRegistry b;
  a.merge(before);
  b.merge(after);
  std::ostringstream ja;
  std::ostringstream jb;
  a.snapshot().write_json(ja);
  b.snapshot().write_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(MetricsSnapshot, SnapshotFromJsonRejectsMalformedHistograms) {
  EXPECT_THROW(obs::snapshot_from_json(obs::parse_json("[1,2]")),
               PreconditionError);
  EXPECT_THROW(
      obs::snapshot_from_json(obs::parse_json(
          R"({"histograms":{"h":{"count":1,"sum":1.0,"min":1.0,"max":1.0,)"
          R"("bounds":[1.0],"buckets":[1]}}})")),
      PreconditionError);  // buckets must be bounds+1 long
}

std::string small_snapshot_json() {
  MetricsRegistry registry;
  registry.counter("runs").add(7);
  registry.gauge("load").set(0.75);
  auto& hist = registry.histogram("lat", kBounds);
  hist.observe(0.5);
  hist.observe(7.0);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  return os.str();
}

TEST(MetricsSnapshot, SnapshotFromJsonRefusesOutOfRangeCounts) {
  const auto load = [](const std::string& text) {
    return obs::snapshot_from_json(obs::parse_json(text));
  };
  const std::string ok = small_snapshot_json();
  EXPECT_EQ(load(ok).counters[0].value, 7u);
  // The counter, the histogram count and a bucket each refuse a negative
  // (which a cast would wrap to ~2^64), a fraction, a non-number and a
  // value past 2^53.
  for (const std::string key : {"\"runs\":", "\"count\":", "\"buckets\":["}) {
    for (const std::string bad : {"-1", "2.5", "\"7\"", "1e300"}) {
      std::string text = ok;
      const auto at = text.find(key) + key.size();
      ASSERT_NE(text.find(key), std::string::npos) << key;
      text.replace(at, text.find_first_of(",}]", at) - at, bad);
      EXPECT_THROW(load(text), PreconditionError) << key << bad;
    }
  }
}

TEST(MetricsSnapshot, SnapshotFromJsonSurvivesByteMutations) {
  // 2000 seeded mutants of a real snapshot: each loads with counts in
  // [0, 2^53] or throws PreconditionError.
  constexpr std::uint64_t kMaxExact = std::uint64_t{1} << 53;
  const auto tally = test::run_byte_mutations(
      small_snapshot_json(), 2000, 0x3E7A1Cull, [&](std::istream& in) {
        const std::string text{std::istreambuf_iterator<char>(in), {}};
        const obs::MetricsSnapshot snap = obs::snapshot_from_json(obs::parse_json(text));
        for (const auto& counter : snap.counters) EXPECT_LE(counter.value, kMaxExact);
        for (const auto& h : snap.histograms) {
          EXPECT_LE(h.count, kMaxExact);
          for (const std::uint64_t b : h.buckets) EXPECT_LE(b, kMaxExact);
        }
      });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
