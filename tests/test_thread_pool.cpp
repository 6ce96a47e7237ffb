#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/contract.hpp"

namespace ahg {
namespace {

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 200; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(3, 4, [&](std::size_t i) { value = static_cast<int>(i); });
  EXPECT_EQ(value, 3);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("fail at 37");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long long> out(5000, 0);
  pool.parallel_for(0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<long long>(i) * 3 - 7;
  });
  long long expect = 0;
  long long got = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect += static_cast<long long>(i) * 3 - 7;
    got += out[i];
  }
  EXPECT_EQ(got, expect);
}

TEST(ThreadPool, ParallelForLowestThrowingIndexWins) {
  // Two iterations throw; the survivor must ALWAYS be the lower index, no
  // matter how the chunks get scheduled. Repeat to give races a chance.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    try {
      pool.parallel_for(0, 128, [](std::size_t i) {
        if (i == 23) throw std::runtime_error("fail 23");
        if (i == 71) throw std::runtime_error("fail 71");
      });
      FAIL() << "parallel_for should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 23");
    }
  }
}

TEST(ThreadPool, ParallelForSkipsIterationsAboveFailure) {
  // Iterations above the failing index may be skipped, but everything below
  // it must still run (serial semantics for the prefix).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.parallel_for(0, hits.size(), [&](std::size_t i) {
      if (i == 40) throw std::runtime_error("fail 40");
      hits[i]++;
    });
    FAIL() << "parallel_for should have thrown";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ThreadPool, NestedParallelForFromWorkerThread) {
  // The campaign shape: an outer parallel_for whose iterations each run an
  // inner parallel_for on the SAME pool, from a worker thread. Must complete
  // (help-while-waiting) and cover every (outer, inner) pair exactly once.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t outer) {
    pool.parallel_for(0, kInner, [&, outer](std::size_t inner) {
      hits[outer * kInner + inner]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HelpWhileWaitingWithAllWorkersBlocked) {
  // One worker, and it is parked waiting on a future only a parallel_for
  // iteration can satisfy. The caller must run the iterations itself (a
  // non-helping implementation deadlocks here).
  ThreadPool pool(1);
  std::promise<void> unblock;
  auto blocked = pool.submit([&] { unblock.get_future().wait(); });
  std::atomic<int> ran{0};
  pool.parallel_for(0, 8, [&](std::size_t i) {
    ran++;
    if (i == 5) unblock.set_value();
  });
  EXPECT_EQ(ran.load(), 8);
  blocked.get();
}

TEST(ThreadPool, SubmitAfterShutdownIsContractViolation) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), PreconditionError);
}

TEST(ThreadPool, ShutdownIsIdempotentAndRunsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&] { ran++; }));
  }
  pool.shutdown();
  pool.shutdown();
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, StealingSpreadsExternalWorkAcrossWorkers) {
  // Fairness smoke: external submissions with enough latency that sleeping
  // workers wake and steal. Multiple distinct workers should participate
  // (exact balance is scheduler-dependent, so only presence is asserted).
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard lock(mutex);
      seen.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.on_worker_thread());
  EXPECT_TRUE(a.submit([&] { return a.on_worker_thread(); }).get());
  EXPECT_FALSE(a.submit([&] { return b.on_worker_thread(); }).get());
}

TEST(GlobalPool, ConfigureRejectsCountsAboveTheCeiling) {
  // Rejections only: no pool of the rejected size may be built.
  const std::size_t before = global_pool_jobs();
  EXPECT_THROW(configure_global_pool(kMaxPoolThreads + 1), PreconditionError);
  EXPECT_THROW(configure_global_pool(100000), PreconditionError);
  EXPECT_EQ(global_pool_jobs(), before);
}

TEST(GlobalPool, IsSingletonAndUsable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  auto fut = a.submit([] { return 1; });
  EXPECT_EQ(fut.get(), 1);
}

}  // namespace
}  // namespace ahg
