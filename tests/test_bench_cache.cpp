// The bench result cache's contract: a cache hit is indistinguishable from
// recomputing the cell — per-scenario outcomes restore exactly, the summary
// accumulators replay bit-identically, and anything suspicious about an
// entry (corruption, schema drift, identity mismatch, out-of-range counts)
// degrades to a miss.

#include "bench/bench_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "core/runner.hpp"
#include "tests/byte_mutation.hpp"

namespace ahg {
namespace {

workload::SuiteParams tiny_suite_params() {
  workload::SuiteParams params;
  params.num_tasks = 32;
  params.num_etc = 2;
  params.num_dag = 1;
  params.master_seed = 4242;
  return params;
}

core::EvaluationParams tiny_eval_params() {
  core::EvaluationParams params;
  params.tuner.coarse_step = 0.5;
  params.tuner.fine_step = 0.0;
  params.tuner.parallel = false;
  params.parallel_cells = false;
  return params;
}

core::CaseHeuristicSummary tiny_cell(core::HeuristicKind heuristic) {
  const workload::ScenarioSuite suite(tiny_suite_params());
  return core::evaluate_case(suite, sim::GridCase::A, heuristic,
                             tiny_eval_params());
}

std::string fresh_dir(const char* name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

bench::CellKeyParams key_params() {
  return bench::CellKeyParams{tiny_suite_params(), tiny_eval_params().tuner,
                              tiny_eval_params().clock};
}

TEST(BenchCache, RoundTripRestoresCellBitIdentically) {
  const auto fresh = tiny_cell(core::HeuristicKind::Slrh1);
  bench::CellCache cache(fresh_dir("cache_roundtrip"));
  const auto key =
      bench::cell_key(key_params(), sim::GridCase::A, core::HeuristicKind::Slrh1);

  EXPECT_FALSE(cache.load(key, sim::GridCase::A, core::HeuristicKind::Slrh1));
  EXPECT_EQ(cache.misses(), 1u);
  cache.store(key, fresh);
  const auto loaded =
      cache.load(key, sim::GridCase::A, core::HeuristicKind::Slrh1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_EQ(loaded->grid_case, fresh.grid_case);
  EXPECT_EQ(loaded->heuristic, fresh.heuristic);
  EXPECT_EQ(loaded->feasible_count, fresh.feasible_count);
  ASSERT_EQ(loaded->scenarios.size(), fresh.scenarios.size());
  for (std::size_t s = 0; s < fresh.scenarios.size(); ++s) {
    const auto& a = fresh.scenarios[s];
    const auto& b = loaded->scenarios[s];
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(a.etc_index, b.etc_index);
    EXPECT_EQ(a.dag_index, b.dag_index);
    EXPECT_EQ(a.upper_bound, b.upper_bound);
    EXPECT_EQ(a.tune.found, b.tune.found);
    EXPECT_EQ(a.tune.alpha, b.tune.alpha);  // exact double round-trip
    EXPECT_EQ(a.tune.beta, b.tune.beta);
    EXPECT_EQ(a.tune.best.complete, b.tune.best.complete);
    EXPECT_EQ(a.tune.best.within_tau, b.tune.best.within_tau);
    EXPECT_EQ(a.tune.best.t100, b.tune.best.t100);
    EXPECT_EQ(a.tune.best.assigned, b.tune.best.assigned);
    EXPECT_EQ(a.tune.best.aet, b.tune.best.aet);
    EXPECT_EQ(a.tune.best.tec, b.tune.best.tec);
    EXPECT_EQ(a.tune.best.wall_seconds, b.tune.best.wall_seconds);
  }
  // The loader replays accumulate_scenario, so the Welford state is
  // bit-identical, not approximately equal.
  EXPECT_EQ(loaded->t100.mean(), fresh.t100.mean());
  EXPECT_EQ(loaded->t100.stddev(), fresh.t100.stddev());
  EXPECT_EQ(loaded->vs_bound.mean(), fresh.vs_bound.mean());
  EXPECT_EQ(loaded->wall_seconds.mean(), fresh.wall_seconds.mean());
  EXPECT_EQ(loaded->value_metric.mean(), fresh.value_metric.mean());
  EXPECT_EQ(loaded->alpha.mean(), fresh.alpha.mean());
  EXPECT_EQ(loaded->beta.mean(), fresh.beta.mean());
  // Phase metrics ride along exactly (counters + histogram buckets).
  ASSERT_EQ(loaded->phases.counters.size(), fresh.phases.counters.size());
  for (std::size_t i = 0; i < fresh.phases.counters.size(); ++i) {
    EXPECT_EQ(loaded->phases.counters[i].name, fresh.phases.counters[i].name);
    EXPECT_EQ(loaded->phases.counters[i].value, fresh.phases.counters[i].value);
  }
  ASSERT_EQ(loaded->phases.histograms.size(), fresh.phases.histograms.size());
  for (std::size_t i = 0; i < fresh.phases.histograms.size(); ++i) {
    const auto& x = fresh.phases.histograms[i];
    const auto& y = loaded->phases.histograms[i];
    EXPECT_EQ(y.name, x.name);
    EXPECT_EQ(y.count, x.count);
    EXPECT_EQ(y.sum, x.sum);
    EXPECT_EQ(y.buckets, x.buckets);
  }
}

TEST(BenchCache, KeyIsSensitiveToEveryInput) {
  const auto base = key_params();
  const auto key = bench::cell_key(base, sim::GridCase::A,
                                   core::HeuristicKind::Slrh1);

  auto seed = base;
  seed.suite.master_seed += 1;
  auto tasks = base;
  tasks.suite.num_tasks += 1;
  auto tuner = base;
  tuner.tuner.coarse_step = 0.25;
  auto clock = base;
  clock.clock.dt += 1;
  EXPECT_NE(bench::cell_key(seed, sim::GridCase::A, core::HeuristicKind::Slrh1), key);
  EXPECT_NE(bench::cell_key(tasks, sim::GridCase::A, core::HeuristicKind::Slrh1), key);
  EXPECT_NE(bench::cell_key(tuner, sim::GridCase::A, core::HeuristicKind::Slrh1), key);
  EXPECT_NE(bench::cell_key(clock, sim::GridCase::A, core::HeuristicKind::Slrh1), key);
  EXPECT_NE(bench::cell_key(base, sim::GridCase::B, core::HeuristicKind::Slrh1), key);
  EXPECT_NE(bench::cell_key(base, sim::GridCase::A, core::HeuristicKind::MaxMax), key);
  // Same inputs, same address.
  EXPECT_EQ(bench::cell_key(key_params(), sim::GridCase::A,
                            core::HeuristicKind::Slrh1),
            key);
}

TEST(BenchCache, CorruptEntryIsAMissNotAnError) {
  const auto fresh = tiny_cell(core::HeuristicKind::MaxMax);
  const std::string dir = fresh_dir("cache_corrupt");
  bench::CellCache cache(dir);
  const auto key =
      bench::cell_key(key_params(), sim::GridCase::A, core::HeuristicKind::MaxMax);
  cache.store(key, fresh);

  // Truncate/garble every entry in the directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ofstream os(entry.path(), std::ios::trunc);
    os << "{\"cache_schema\":";  // cut off mid-value
  }
  EXPECT_FALSE(cache.load(key, sim::GridCase::A, core::HeuristicKind::MaxMax));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BenchCache, IdentityMismatchIsAMiss) {
  // A hash collision (or a caller bug) would hand back another cell's entry;
  // the stored case/heuristic must be cross-checked, not trusted.
  const auto fresh = tiny_cell(core::HeuristicKind::MaxMax);
  bench::CellCache cache(fresh_dir("cache_identity"));
  const auto key =
      bench::cell_key(key_params(), sim::GridCase::A, core::HeuristicKind::MaxMax);
  cache.store(key, fresh);
  EXPECT_FALSE(cache.load(key, sim::GridCase::A, core::HeuristicKind::Slrh1));
  EXPECT_TRUE(cache.load(key, sim::GridCase::A, core::HeuristicKind::MaxMax));
}

/// One hand-written entry for a Max-Max cell in Case A with the given
/// scenario member spliced in place of the `"bound":10` field.
std::string cache_entry(const std::string& replace_bound = "\"bound\":10") {
  return "{\"cache_schema\":" + std::to_string(kBenchCacheSchema) +
         R"(,"case":"Case A","heuristic":"Max-Max","scenarios":[{"etc":0,"dag":1,)" +
         replace_bound +
         R"(,"found":true,"alpha":0.5,"beta":0.3,"complete":true,"within_tau":true,)"
         R"("t100":5,"assigned":10,"aet":100,"tec":1.5,"wall_seconds":0.1}]})";
}

core::CaseHeuristicSummary deserialize(const std::string& text) {
  return bench::CellCache::deserialize(text, sim::GridCase::A,
                                       core::HeuristicKind::MaxMax);
}

TEST(BenchCache, DeserializeRefusesOutOfRangeCounts) {
  const auto ok = deserialize(cache_entry());
  ASSERT_EQ(ok.scenarios.size(), 1u);
  EXPECT_EQ(ok.scenarios[0].dag_index, 1u);
  EXPECT_EQ(ok.scenarios[0].upper_bound, 10u);
  EXPECT_EQ(ok.scenarios[0].tune.best.aet, 100);
  // Each count refuses a negative (which a cast would wrap to ~2^64), a
  // fraction, a non-number and a value past its range.
  for (const std::string field : {"etc", "dag", "bound", "t100", "assigned", "aet"}) {
    for (const std::string bad : {"-1", "2.5", "\"7\"", "1e300"}) {
      std::string text = cache_entry();
      const std::string key = "\"" + field + "\":";
      const auto at = text.find(key) + key.size();
      text.replace(at, text.find_first_of(",}", at) - at, bad);
      EXPECT_THROW(deserialize(text), PreconditionError) << field << "=" << bad;
    }
  }
  EXPECT_THROW(deserialize(cache_entry("\"bound\":2147483648")), PreconditionError);
  EXPECT_THROW(deserialize(R"({"cache_schema":)" + std::to_string(kBenchCacheSchema) +
                           R"(,"case":"Case A","heuristic":"Max-Max","scenarios":[3]})"),
               PreconditionError);
}

TEST(BenchCache, DeserializeSurvivesByteMutations) {
  // 2000 seeded mutants of a real entry (phases left out so the edits land
  // on the per-scenario records): each loads with in-range counts or
  // throws PreconditionError.
  auto cell = tiny_cell(core::HeuristicKind::MaxMax);
  cell.phases = {};
  const auto tally = test::run_byte_mutations(
      bench::CellCache::serialize(cell), 2000, 0xCAC4Eull, [](std::istream& in) {
        const std::string text{std::istreambuf_iterator<char>(in), {}};
        for (const auto& eval : deserialize(text).scenarios) {
          constexpr auto kMaxCount =
              static_cast<std::size_t>(std::numeric_limits<TaskId>::max());
          EXPECT_LE(eval.etc_index, kMaxCount);
          EXPECT_LE(eval.dag_index, kMaxCount);
          EXPECT_LE(eval.upper_bound, kMaxCount);
          EXPECT_LE(eval.tune.best.t100, kMaxCount);
          EXPECT_LE(eval.tune.best.assigned, kMaxCount);
          EXPECT_GE(eval.tune.best.aet, 0);
        }
      });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(BenchCache, DisabledCacheNeverTouchesDisk) {
  const auto fresh = tiny_cell(core::HeuristicKind::MaxMax);
  const std::string dir = fresh_dir("cache_disabled");
  bench::CellCache cache(dir, /*enabled=*/false);
  const auto key =
      bench::cell_key(key_params(), sim::GridCase::A, core::HeuristicKind::MaxMax);
  cache.store(key, fresh);
  EXPECT_FALSE(cache.load(key, sim::GridCase::A, core::HeuristicKind::MaxMax));
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace ahg
