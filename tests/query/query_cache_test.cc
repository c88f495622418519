// Unit tests for the sharded LRU cell cache: hit/miss accounting, bounded
// capacity with LRU eviction, Clear, error pass-through, promotion/demotion
// billing, and concurrent access (the TSan job runs this binary). The
// admission policy itself is tested in tests/common/segmented_lru_test.cc.
#include "query/query_cache.h"

#include <gtest/gtest.h>

#include <thread>

namespace uvd {
namespace query {
namespace {

rtree::LeafEntry MakeEntry(int id) {
  rtree::LeafEntry e;
  e.id = id;
  e.mbc = {{static_cast<double>(id), 0.0}, 1.0};
  e.ptr = static_cast<uncertain::ObjectPtr>(id);
  return e;
}

QueryCache::Loader LoaderFor(int id, int* calls = nullptr) {
  return [id, calls]() -> Result<std::vector<rtree::LeafEntry>> {
    if (calls != nullptr) ++*calls;
    return std::vector<rtree::LeafEntry>{MakeEntry(id)};
  };
}

TEST(QueryCacheTest, HitSkipsTheLoader) {
  QueryCache cache;
  Stats stats;
  int calls = 0;
  auto first = cache.GetOrLoad(7, LoaderFor(7, &calls), &stats);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrLoad(7, LoaderFor(7, &calls), &stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.Get(Ticker::kQueryCacheMisses), 1u);
  EXPECT_EQ(stats.Get(Ticker::kQueryCacheHits), 1u);
  ASSERT_EQ(second.value().size(), 1u);
  EXPECT_EQ(second.value()[0].id, 7);
}

TEST(QueryCacheTest, CapacityBoundWithLruEviction) {
  QueryCacheOptions opts;
  opts.capacity = 4;
  opts.shards = 1;  // deterministic eviction order
  QueryCache cache(opts);
  Stats stats;
  for (uint32_t leaf = 0; leaf < 8; ++leaf) {
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
  }
  EXPECT_EQ(cache.size(), 4u);
  // Leaves 4..7 are resident; leaf 0 was evicted and must re-load.
  int calls = 0;
  ASSERT_TRUE(cache.GetOrLoad(7, LoaderFor(7, &calls), &stats).ok());
  EXPECT_EQ(calls, 0);
  ASSERT_TRUE(cache.GetOrLoad(0, LoaderFor(0, &calls), &stats).ok());
  EXPECT_EQ(calls, 1);
}

TEST(QueryCacheTest, ClearDropsEverything) {
  QueryCache cache;
  Stats stats;
  ASSERT_TRUE(cache.GetOrLoad(1, LoaderFor(1), &stats).ok());
  ASSERT_TRUE(cache.GetOrLoad(2, LoaderFor(2), &stats).ok());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  int calls = 0;
  ASSERT_TRUE(cache.GetOrLoad(1, LoaderFor(1, &calls), &stats).ok());
  EXPECT_EQ(calls, 1);
}

TEST(QueryCacheTest, LoaderErrorsAreNotCached) {
  QueryCache cache;
  Stats stats;
  int calls = 0;
  const auto failing = [&calls]() -> Result<std::vector<rtree::LeafEntry>> {
    ++calls;
    return Status::Internal("disk on fire");
  };
  EXPECT_FALSE(cache.GetOrLoad(3, failing, &stats).ok());
  EXPECT_EQ(cache.size(), 0u);
  // The next lookup retries the loader instead of serving the failure.
  ASSERT_TRUE(cache.GetOrLoad(3, LoaderFor(3, &calls), &stats).ok());
  EXPECT_EQ(calls, 2);
}

TEST(QueryCacheTest, ScanCannotEvictProtectedWorkingSet) {
  // Segmented-LRU admission: a hot set that has been re-referenced lives
  // in the protected segment, and a one-pass adversarial scan — all
  // misses, never re-referenced — can only churn probationary slots.
  QueryCacheOptions opts;
  opts.capacity = 8;
  opts.shards = 1;
  QueryCache cache(opts);
  Stats stats;
  for (uint32_t leaf = 0; leaf < 4; ++leaf) {
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
  }
  EXPECT_EQ(cache.protected_size(), 4u);
  EXPECT_EQ(stats.Get(Ticker::kQueryCachePromotions), 4u);

  // 64 distinct cold leaves sweep through: 8x the capacity.
  for (uint32_t leaf = 100; leaf < 164; ++leaf) {
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
  }

  // The hot set is still resident — no loader call on re-access.
  int calls = 0;
  for (uint32_t leaf = 0; leaf < 4; ++leaf) {
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf), &calls), &stats)
                    .ok());
  }
  EXPECT_EQ(calls, 0);
  EXPECT_LE(cache.size(), 8u);
}

TEST(QueryCacheTest, ProtectedOverflowDemotesLru) {
  QueryCacheOptions opts;
  opts.capacity = 3;  // protected segment holds min(3 - 1, floor(0.8 * 3)) = 2
  opts.shards = 1;
  QueryCache cache(opts);
  Stats stats;
  for (uint32_t leaf = 0; leaf < 3; ++leaf) {
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
    ASSERT_TRUE(cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)), &stats).ok());
  }
  // Third promotion overflowed the 2-slot protected segment: leaf 0 (the
  // protected LRU) went back to probationary with its entry intact.
  EXPECT_EQ(stats.Get(Ticker::kQueryCachePromotions), 3u);
  EXPECT_EQ(stats.Get(Ticker::kQueryCacheDemotions), 1u);
  EXPECT_EQ(cache.protected_size(), 2u);
  int calls = 0;
  ASSERT_TRUE(cache.GetOrLoad(0, LoaderFor(0, &calls), &stats).ok());
  EXPECT_EQ(calls, 0);
}

TEST(QueryCacheTest, ConcurrentMixedLookupsAreSafe) {
  QueryCacheOptions opts;
  opts.capacity = 64;
  opts.shards = 4;
  QueryCache cache(opts);
  std::vector<Stats> shards(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &shards, t] {
      for (int round = 0; round < 200; ++round) {
        const uint32_t leaf = static_cast<uint32_t>((round * (t + 1)) % 96);
        auto r = cache.GetOrLoad(leaf, LoaderFor(static_cast<int>(leaf)),
                                 &shards[static_cast<size_t>(t)]);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r.value().size(), 1u);
        ASSERT_EQ(r.value()[0].id, static_cast<int>(leaf));
      }
    });
  }
  for (auto& t : threads) t.join();
  Stats total;
  for (const Stats& s : shards) total.MergeFrom(s);
  EXPECT_EQ(total.Get(Ticker::kQueryCacheHits) + total.Get(Ticker::kQueryCacheMisses),
            4u * 200u);
  EXPECT_LE(cache.size(), 64u);
}

}  // namespace
}  // namespace query
}  // namespace uvd
