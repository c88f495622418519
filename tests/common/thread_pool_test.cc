// ThreadPool and RunWorkers: every worker runs exactly once, the caller is
// worker 0, nested and concurrent fan-outs on one pool complete, and
// per-worker Stats shards merge exactly (the pattern the build pipeline
// relies on).
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/stats.h"

namespace uvd {
namespace {

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  RunWorkers(&pool, 100, [&counter](int) { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    RunWorkers(&pool, 10, [&counter](int) { counter.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, NonPositiveThreadCountFallsBackToDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
  EXPECT_EQ(ThreadPool::ResolveThreads(-3), ThreadPool::DefaultThreads());
  EXPECT_EQ(ThreadPool::ResolveThreads(5), 5);
}

TEST(ThreadPoolTest, PerWorkerStatsShardsMergeExactly) {
  constexpr int kWorkers = 4;
  constexpr int kAddsPerWorker = 1000;
  ThreadPool pool(kWorkers);
  std::vector<Stats> shards(kWorkers);
  RunWorkers(&pool, kWorkers, [&shards](int w) {
    for (int i = 0; i < kAddsPerWorker; ++i) {
      shards[w].Add(Ticker::kHyperbolaTests);
      shards[w].Add(Ticker::kPageReads, 2);
    }
  });
  Stats total;
  for (const Stats& shard : shards) total.MergeFrom(shard);
  EXPECT_EQ(total.Get(Ticker::kHyperbolaTests), kWorkers * kAddsPerWorker);
  EXPECT_EQ(total.Get(Ticker::kPageReads), 2u * kWorkers * kAddsPerWorker);
}

TEST(ThreadPoolTest, SharedStatsConcurrentAddIsExact) {
  // Tickers are relaxed atomics: hammering one Stats from every worker
  // must lose no increments.
  constexpr int kWorkers = 8;
  constexpr int kAddsPerWorker = 5000;
  Stats shared;
  {
    ThreadPool pool(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      pool.Submit([&shared] {
        for (int i = 0; i < kAddsPerWorker; ++i) {
          shared.Add(Ticker::kRtreeLeafReads);
        }
      });
    }
  }
  EXPECT_EQ(shared.Get(Ticker::kRtreeLeafReads),
            static_cast<uint64_t>(kWorkers) * kAddsPerWorker);
}

TEST(ThreadPoolTest, WorkerZeroRunsOnTheCallingThread) {
  ThreadPool pool(3);
  for (const int workers : {1, 2, 4, 7}) {
    std::thread::id worker0;
    RunWorkers(&pool, workers, [&worker0](int w) {
      if (w == 0) worker0 = std::this_thread::get_id();
    });
    EXPECT_EQ(worker0, std::this_thread::get_id()) << "workers " << workers;
  }
}

TEST(ThreadPoolTest, EveryWorkerRunsExactlyOnce) {
  ThreadPool pool(3);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    for (const int workers : {1, 2, 7}) {
      std::vector<std::atomic<int>> runs(static_cast<size_t>(workers));
      RunWorkers(p, workers, [&runs](int w) {
        runs[static_cast<size_t>(w)].fetch_add(1, std::memory_order_relaxed);
      });
      for (int w = 0; w < workers; ++w) {
        EXPECT_EQ(runs[static_cast<size_t>(w)].load(), 1)
            << "workers " << workers << " w " << w << (p == nullptr ? " no pool" : "");
      }
    }
  }
}

TEST(ThreadPoolTest, NestedFanOutThreeDeepCompletes) {
  // Every pool thread may be blocked in an inner fan-out's caller role;
  // the callers still run every unclaimed worker themselves.
  for (const int threads : {1, 2}) {
    ThreadPool pool(threads);
    std::atomic<int> leaves{0};
    RunWorkers(&pool, 3, [&](int) {
      RunWorkers(&pool, 3, [&](int) {
        RunWorkers(&pool, 3, [&](int) { leaves.fetch_add(1, std::memory_order_relaxed); });
      });
    });
    EXPECT_EQ(leaves.load(), 27) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersOnOnePoolBothComplete) {
  ThreadPool pool(2);
  std::atomic<int> counts[2] = {{0}, {0}};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&pool, &counts, c] {
      for (int round = 0; round < 50; ++round) {
        RunWorkers(&pool, 4, [&](int) {
          RunWorkers(&pool, 2, [&](int) { counts[c].fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(counts[0].load(), 50 * 4 * 2);
  EXPECT_EQ(counts[1].load(), 50 * 4 * 2);
}

}  // namespace
}  // namespace uvd
