#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/contract.hpp"
#include "support/rng.hpp"
#include "tests/oracles.hpp"

namespace ahg::sim {
namespace {

TEST(Timeline, EmptyTimeline) {
  Timeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.ready_time(), 0);
  EXPECT_TRUE(tl.is_free(0, 100));
  EXPECT_EQ(tl.earliest_fit(5, 10), 5);
  EXPECT_EQ(tl.busy_cycles(), 0);
}

TEST(Timeline, InsertAndQuery) {
  Timeline tl;
  tl.insert(10, 5);  // busy [10, 15)
  EXPECT_FALSE(tl.is_free(10, 1));
  EXPECT_FALSE(tl.is_free(14, 1));
  EXPECT_TRUE(tl.is_free(15, 100));
  EXPECT_TRUE(tl.is_free(0, 10));
  EXPECT_FALSE(tl.is_free(9, 2));  // straddles the start
  EXPECT_EQ(tl.ready_time(), 15);
  EXPECT_EQ(tl.busy_cycles(), 5);
}

TEST(Timeline, ZeroDurationAlwaysFits) {
  Timeline tl;
  tl.insert(0, 10);
  EXPECT_TRUE(tl.is_free(5, 0));
  EXPECT_EQ(tl.earliest_fit(5, 0), 5);
}

TEST(Timeline, RejectsOverlappingInsert) {
  Timeline tl;
  tl.insert(10, 10);
  EXPECT_THROW(tl.insert(15, 1), PreconditionError);
  EXPECT_THROW(tl.insert(5, 6), PreconditionError);
  EXPECT_THROW(tl.insert(10, 10), PreconditionError);
  EXPECT_NO_THROW(tl.insert(20, 1));  // adjacent is fine (half-open)
  EXPECT_NO_THROW(tl.insert(9, 1));
}

TEST(Timeline, RejectsInvalidIntervals) {
  Timeline tl;
  EXPECT_THROW(tl.insert(-1, 5), PreconditionError);
  EXPECT_THROW(tl.insert(0, 0), PreconditionError);
  EXPECT_THROW(tl.insert(0, -3), PreconditionError);
  EXPECT_THROW(tl.is_free(-1, 1), PreconditionError);
}

TEST(Timeline, EarliestFitSkipsBusy) {
  Timeline tl;
  tl.insert(10, 10);  // [10,20)
  EXPECT_EQ(tl.earliest_fit(0, 10), 0);   // fits before
  EXPECT_EQ(tl.earliest_fit(0, 11), 20);  // too big for the gap
  EXPECT_EQ(tl.earliest_fit(12, 5), 20);  // starts inside busy -> after
}

TEST(Timeline, EarliestFitFindsInteriorHole) {
  Timeline tl;
  tl.insert(0, 10);   // [0,10)
  tl.insert(25, 10);  // [25,35)
  EXPECT_EQ(tl.earliest_fit(0, 15), 10);  // the [10,25) hole
  EXPECT_EQ(tl.earliest_fit(0, 16), 35);  // hole too small
  EXPECT_EQ(tl.earliest_fit(12, 13), 12); // partial hole from not_before
  EXPECT_EQ(tl.earliest_fit(12, 14), 35);
}

TEST(Timeline, InsertionKeepsSortedOrder) {
  Timeline tl;
  tl.insert(50, 5);
  tl.insert(10, 5);
  tl.insert(30, 5);
  const auto ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].start, 10);
  EXPECT_EQ(ivs[1].start, 30);
  EXPECT_EQ(ivs[2].start, 50);
  EXPECT_EQ(tl.ready_time(), 55);
}

TEST(Timeline, EraseExactInterval) {
  Timeline tl;
  tl.insert(10, 5);
  tl.insert(20, 5);
  tl.erase(10, 5);
  EXPECT_TRUE(tl.is_free(10, 5));
  EXPECT_EQ(tl.size(), 1u);
  EXPECT_THROW(tl.erase(10, 5), PreconditionError);   // already gone
  EXPECT_THROW(tl.erase(20, 4), PreconditionError);   // wrong duration
}

TEST(Timeline, PairFitOnEmptyTimelines) {
  Timeline a;
  Timeline b;
  EXPECT_EQ(Timeline::earliest_fit_pair(a, b, 7, 10), 7);
}

TEST(Timeline, PairFitRespectsBothSides) {
  Timeline a;
  Timeline b;
  a.insert(0, 10);   // a busy [0,10)
  b.insert(10, 10);  // b busy [10,20)
  // duration 5: a free from 10 but b busy until 20.
  EXPECT_EQ(Timeline::earliest_fit_pair(a, b, 0, 5), 20);
}

TEST(Timeline, PairFitFindsCommonHole) {
  Timeline a;
  Timeline b;
  a.insert(0, 10);
  a.insert(30, 10);  // a free [10,30)
  b.insert(0, 15);
  b.insert(25, 5);   // b free [15,25), [30,...)
  // Common hole [15,25): duration 10 fits exactly.
  EXPECT_EQ(Timeline::earliest_fit_pair(a, b, 0, 10), 15);
  // Duration 11 does not fit in [15,25); next common window: a free from 40,
  // b free from 30 -> 40.
  EXPECT_EQ(Timeline::earliest_fit_pair(a, b, 0, 11), 40);
}

// Property sweep: earliest_fit results are actually free and minimal, under
// randomized busy patterns.
class TimelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineProperty, EarliestFitIsFreeAndMinimal) {
  Rng rng(GetParam());
  Timeline tl;
  // Build a random busy pattern.
  Cycles cursor = 0;
  for (int k = 0; k < 40; ++k) {
    cursor += rng.uniform_int(0, 20);
    const Cycles dur = rng.uniform_int(1, 15);
    tl.insert(cursor, dur);
    cursor += dur;
  }
  for (int q = 0; q < 200; ++q) {
    const Cycles not_before = rng.uniform_int(0, cursor + 50);
    const Cycles dur = rng.uniform_int(1, 25);
    const Cycles fit = tl.earliest_fit(not_before, dur);
    ASSERT_GE(fit, not_before);
    ASSERT_TRUE(tl.is_free(fit, dur));
    // Minimality: no earlier start in [not_before, fit) is free.
    for (Cycles s = std::max(not_before, fit - 30); s < fit; ++s) {
      ASSERT_FALSE(tl.is_free(s, dur)) << "earlier fit exists at " << s;
    }
  }
}

TEST_P(TimelineProperty, PairFitIsFreeOnBothAndMinimal) {
  Rng rng(GetParam() ^ 0xabcdef);
  Timeline a;
  Timeline b;
  Cycles ca = 0;
  Cycles cb = 0;
  for (int k = 0; k < 30; ++k) {
    ca += rng.uniform_int(0, 15);
    const Cycles da = rng.uniform_int(1, 10);
    a.insert(ca, da);
    ca += da;
    cb += rng.uniform_int(0, 15);
    const Cycles db = rng.uniform_int(1, 10);
    b.insert(cb, db);
    cb += db;
  }
  for (int q = 0; q < 100; ++q) {
    const Cycles not_before = rng.uniform_int(0, std::max(ca, cb));
    const Cycles dur = rng.uniform_int(1, 12);
    const Cycles fit = Timeline::earliest_fit_pair(a, b, not_before, dur);
    ASSERT_GE(fit, not_before);
    ASSERT_TRUE(a.is_free(fit, dur));
    ASSERT_TRUE(b.is_free(fit, dur));
    for (Cycles s = std::max(not_before, fit - 25); s < fit; ++s) {
      ASSERT_FALSE(a.is_free(s, dur) && b.is_free(s, dur))
          << "earlier common fit exists at " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- hole-index coherence under churn -----------------------------------
//
// The ordered hole index answering earliest_fit() is maintained
// incrementally by insert()/erase(). These sweeps interleave random
// insertions with random erasures (the churn driver's un-scheduling) and
// assert every probe agrees with a from-scratch brute-force gap scan
// (test::brute_force_fit in tests/oracles.hpp).

using test::brute_force_fit;

class TimelineChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineChurnProperty, HoleIndexMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x5eedu);
  Timeline tl;
  std::vector<Interval> live;
  const Cycles span = 4000;
  for (int step = 0; step < 600; ++step) {
    const bool do_erase = !live.empty() && rng.uniform_int(0, 9) < 4;
    if (do_erase) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<Cycles>(live.size()) - 1));
      const Interval iv = live[pick];
      tl.erase(iv.start, iv.duration());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Up to 3 attempts to land a random non-overlapping interval.
      for (int attempt = 0; attempt < 3; ++attempt) {
        const Cycles start = rng.uniform_int(0, span);
        const Cycles dur = rng.uniform_int(1, 12);
        if (!tl.is_free(start, dur)) continue;
        tl.insert(start, dur);
        live.push_back({start, start + dur});
        break;
      }
    }
    // Probe after every mutation: the index must be coherent mid-churn, not
    // just at rest.
    for (int q = 0; q < 4; ++q) {
      const Cycles p = rng.uniform_int(0, span + 100);
      const Cycles d = rng.uniform_int(1, 40);
      ASSERT_EQ(tl.earliest_fit(p, d), brute_force_fit(tl, p, d))
          << "hole index diverged from brute force at step " << step;
    }
  }
}

TEST_P(TimelineChurnProperty, PairFitMatchesWalkComposition) {
  Rng rng(GetParam() ^ 0xfeedu);
  Timeline a;
  Timeline b;
  std::vector<Interval> live_a;
  std::vector<Interval> live_b;
  const auto mutate = [&](Timeline& tl, std::vector<Interval>& live) {
    if (!live.empty() && rng.uniform_int(0, 9) < 3) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<Cycles>(live.size()) - 1));
      tl.erase(live[pick].start, live[pick].duration());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      return;
    }
    for (int attempt = 0; attempt < 3; ++attempt) {
      const Cycles start = rng.uniform_int(0, 2000);
      const Cycles dur = rng.uniform_int(1, 10);
      if (!tl.is_free(start, dur)) continue;
      tl.insert(start, dur);
      live.push_back({start, start + dur});
      break;
    }
  };
  for (int step = 0; step < 300; ++step) {
    mutate(a, live_a);
    mutate(b, live_b);
    const Cycles p = rng.uniform_int(0, 2100);
    const Cycles d = rng.uniform_int(1, 15);
    const Cycles fit = Timeline::earliest_fit_pair(a, b, p, d);
    ASSERT_GE(fit, p);
    ASSERT_TRUE(a.is_free(fit, d));
    ASSERT_TRUE(b.is_free(fit, d));
    for (Cycles s = std::max(p, fit - 30); s < fit; ++s) {
      ASSERT_FALSE(a.is_free(s, d) && b.is_free(s, d))
          << "earlier common fit exists at " << s;
    }
  }
}

/// Brute force for the pair query: the minimal common start is not_before or
/// some interval end of EITHER timeline — check all of them on both sides.
Cycles brute_force_pair_fit(const Timeline& a, const Timeline& b,
                            Cycles not_before, Cycles duration) {
  Cycles best = std::numeric_limits<Cycles>::max();
  const auto consider = [&](Cycles s) {
    if (s >= not_before && a.is_free(s, duration) && b.is_free(s, duration)) {
      best = std::min(best, s);
    }
  };
  consider(not_before);
  for (const Interval& iv : a.intervals()) consider(std::max(not_before, iv.end));
  for (const Interval& iv : b.intervals()) consider(std::max(not_before, iv.end));
  return best;
}

TEST_P(TimelineChurnProperty, PairFitMatchesBruteForcePairScan) {
  Rng rng(GetParam() ^ 0x9a12u);
  Timeline a;
  Timeline b;
  std::vector<Interval> live_a;
  std::vector<Interval> live_b;
  const Cycles span = 1500;
  const auto erase_one = [&](Timeline& tl, std::vector<Interval>& live) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<Cycles>(live.size()) - 1));
    tl.erase(live[pick].start, live[pick].duration());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  };
  for (int step = 0; step < 400; ++step) {
    const bool on_a = rng.uniform_int(0, 1) == 0;
    Timeline& tl = on_a ? a : b;
    std::vector<Interval>& live = on_a ? live_a : live_b;
    if (!live.empty() && rng.uniform_int(0, 9) < 3) {
      erase_one(tl, live);
    } else {
      for (int attempt = 0; attempt < 3; ++attempt) {
        Cycles start = rng.uniform_int(0, span);
        const Cycles dur = rng.uniform_int(1, 10);
        // Half of b's inserts snap to one of a's interval boundaries (and
        // vice versa): candidate gaps on the two timelines then share edges
        // or overlap partially — the regime where the alternating pair walk
        // is easiest to get wrong.
        const std::vector<Interval>& other = on_a ? live_b : live_a;
        if (!other.empty() && rng.uniform_int(0, 1) == 0) {
          const Interval& anchor = other[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<Cycles>(other.size()) - 1))];
          start = rng.uniform_int(0, 1) == 0 ? anchor.end
                                             : std::max<Cycles>(0, anchor.start - dur);
        }
        if (!tl.is_free(start, dur)) continue;
        tl.insert(start, dur);
        live.push_back({start, start + dur});
        break;
      }
    }
    for (int q = 0; q < 3; ++q) {
      const Cycles p = rng.uniform_int(0, span + 100);
      const Cycles d = rng.uniform_int(1, 20);
      const Cycles fit = Timeline::earliest_fit_pair(a, b, p, d);
      ASSERT_EQ(fit, brute_force_pair_fit(a, b, p, d))
          << "pair fit diverged from brute-force pair scan at step " << step
          << " (p=" << p << " d=" << d << ")";
      ASSERT_TRUE(a.is_free(fit, d));
      ASSERT_TRUE(b.is_free(fit, d));
    }
  }
}

// The Max-Max candidate table's re-price rule (DESIGN.md §4j): after
// insert(s, d), a query whose old fit slot [fit, fit + dur) misses [s, s + d)
// keeps its fit, and any other query fits exactly where a query from s + d
// does. A zero-length slot misses every insert. Checked for every query
// against the timeline before and after each insert, under churn.
TEST_P(TimelineChurnProperty, InsertMovesOnlyTheFitsItOverlaps) {
  Rng rng(GetParam() ^ 0x0f17u);
  Timeline tl;
  std::vector<Interval> live;
  const Cycles span = 3000;
  struct Query {
    Cycles not_before;
    Cycles dur;
    Cycles fit;
  };
  std::vector<Query> queries(32);
  std::size_t kept = 0;
  std::size_t moved = 0;
  for (int step = 0; step < 800; ++step) {
    if (!live.empty() && rng.uniform_int(0, 9) < 3) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<Cycles>(live.size()) - 1));
      tl.erase(live[pick].start, live[pick].duration());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const Cycles s = rng.uniform_int(0, span);
    const Cycles d = rng.uniform_int(1, 12);
    if (!tl.is_free(s, d)) continue;
    for (Query& q : queries) {
      q.not_before = rng.uniform_int(0, span + 100);
      q.dur = rng.uniform_int(0, 7) == 0 ? 0 : rng.uniform_int(1, 30);
      q.fit = tl.earliest_fit(q.not_before, q.dur);
    }
    tl.insert(s, d);
    live.push_back({s, s + d});
    for (const Query& q : queries) {
      const Cycles fit = tl.earliest_fit(q.not_before, q.dur);
      const bool overlaps = q.dur > 0 && q.fit < s + d && s < q.fit + q.dur;
      if (overlaps) {
        ++moved;
        ASSERT_EQ(fit, tl.earliest_fit(s + d, q.dur))
            << "step " << step << " insert [" << s << ", " << s + d << ") query ("
            << q.not_before << ", " << q.dur << ") old fit " << q.fit;
      } else {
        ++kept;
        ASSERT_EQ(fit, q.fit) << "step " << step << " insert [" << s << ", " << s + d
                              << ") query (" << q.not_before << ", " << q.dur << ")";
      }
    }
  }
  // Both branches of the rule ran.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineChurnProperty,
                         ::testing::Values(1u, 7u, 42u, 99u, 12345u));

// A timeline longer than several index blocks (kGapBlock = 64 gaps per
// block) exercises the block-maxima skip path and the partial leading block.
TEST(Timeline, HoleIndexAcrossManyBlocks) {
  Timeline tl;
  // 400 intervals of length 2 with alternating gap widths 1 and 50.
  Cycles at = 0;
  std::vector<Cycles> starts;
  for (int k = 0; k < 400; ++k) {
    at += (k % 2 == 0) ? 1 : 50;
    tl.insert(at, 2);
    starts.push_back(at);
    at += 2;
  }
  for (const Cycles p : {Cycles{0}, Cycles{500}, Cycles{5000}, at + 10}) {
    for (const Cycles d : {Cycles{1}, Cycles{2}, Cycles{49}, Cycles{50}, Cycles{51}}) {
      EXPECT_EQ(tl.earliest_fit(p, d), brute_force_fit(tl, p, d))
          << "p=" << p << " d=" << d;
    }
  }
  // Erase a run in the middle: the merged hole must become visible to
  // probes that skip whole blocks to reach it.
  for (int k = 120; k < 140; ++k) tl.erase(starts[static_cast<std::size_t>(k)], 2);
  for (const Cycles d : {Cycles{60}, Cycles{100}, Cycles{400}, Cycles{1000}}) {
    EXPECT_EQ(tl.earliest_fit(0, d), brute_force_fit(tl, 0, d)) << "d=" << d;
  }
}

}  // namespace
}  // namespace ahg::sim
