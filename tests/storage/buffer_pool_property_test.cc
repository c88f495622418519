// Randomized buffer-pool property test: for every pool capacity (1, 2, 16
// and unbounded), a seeded stream of reads, write-throughs, invalidations,
// pin-holds and clears runs against a BufferPool whose backing is a plain
// in-RAM PageManager — the oracle. Every page the pool serves must be
// byte-identical to the oracle at all times, the resident set must respect
// capacity whenever no pins are outstanding, and the eviction accounting
// must be EXACT: misses == resident + evictions + invalidations+ clears'
// share (the single-threaded conservation law from buffer_pool.h). A final
// multi-threaded torture phase hammers one pool from several readers under
// TSan: contents stay correct and the hit/miss split stays conservative.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"

namespace uvd {
namespace storage {
namespace {

constexpr size_t kPageSize = 64;
constexpr size_t kNumPages = 48;

std::vector<uint8_t> Fill(uint32_t page, uint32_t version) {
  std::vector<uint8_t> data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>((page * 37 + version * 101 + i) & 0xff);
  }
  return data;
}

struct Harness {
  Stats stats;
  PageManager oracle{kPageSize, &stats};
  std::vector<uint32_t> versions;

  Harness() {
    UVD_CHECK_OK(oracle.AllocateRun(kNumPages).status());
    versions.assign(kNumPages, 0);
    for (uint32_t p = 0; p < kNumPages; ++p) {
      UVD_CHECK_OK(oracle.Write(p, Fill(p, 0)));
    }
  }

  BufferPool MakePool(size_t capacity) {
    BufferPoolOptions options;
    options.capacity_pages = capacity;
    return BufferPool(options, kPageSize,
                      [this](PageId id, std::vector<uint8_t>* out) {
                        return oracle.Read(id, out);
                      });
  }
};

TEST(BufferPoolPropertyTest, RandomOpsMatchOracleAtEveryCapacity) {
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{16}, size_t{0}}) {
    for (uint64_t seed : {7ull, 99ull, 20260808ull}) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " seed=" + std::to_string(seed));
      Harness h;
      BufferPool pool = h.MakePool(capacity);
      Rng rng(seed);
      std::vector<BufferPool::PageRef> held;
      uint64_t clear_invalidations = 0;

      for (int op = 0; op < 4000; ++op) {
        const auto page =
            static_cast<PageId>(rng.UniformInt(0, kNumPages - 1));
        const int kind = static_cast<int>(rng.UniformInt(0, 99));
        if (kind < 55) {
          // Read through the pool; compare with the oracle byte-for-byte.
          std::vector<uint8_t> got, want;
          UVD_CHECK_OK(pool.Read(page, &got));
          UVD_CHECK_OK(h.oracle.Read(page, &want));
          ASSERT_EQ(got, want) << "page " << page;
        } else if (kind < 75) {
          // Write-through: oracle first, then Put (the FilePageManager
          // ordering). The pool must never serve the stale version.
          const auto data = Fill(page, ++h.versions[page]);
          UVD_CHECK_OK(h.oracle.Write(page, data));
          pool.Put(page, data);
        } else if (kind < 85) {
          pool.Invalidate(page);
        } else if (kind < 93) {
          // Pin and hold: the frame must survive any eviction pressure.
          auto pinned = pool.Pin(page);
          UVD_CHECK_OK(pinned.status());
          held.push_back(std::move(pinned).value());
        } else if (kind < 97) {
          if (!held.empty()) {
            held.erase(held.begin() +
                       static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(held.size()) - 1)));
          }
        } else {
          // Clear bills an invalidation per resident frame.
          clear_invalidations += pool.size();
          pool.Clear();
        }
        // Pinned data stays valid and current-at-pin-or-newer is not
        // required — but it must never be garbage: still a full page.
        for (const auto& ref : held) {
          ASSERT_EQ(ref.data().size(), kPageSize);
        }
      }
      held.clear();

      // Full sweep: the steady state serves the oracle bytes everywhere.
      // (Its misses also drain any transient pin-overflow, so the capacity
      // bound below is checked at a quiescent point.)
      for (uint32_t p = 0; p < kNumPages; ++p) {
        std::vector<uint8_t> got, want;
        UVD_CHECK_OK(pool.Read(p, &got));
        UVD_CHECK_OK(h.oracle.Read(p, &want));
        ASSERT_EQ(got, want) << "page " << p;
      }

      // Exact conservation: every miss either is still resident, was
      // evicted, or was invalidated (individually or via Clear).
      EXPECT_EQ(pool.misses(),
                pool.size() + pool.evictions() + pool.invalidations());
      EXPECT_GE(pool.invalidations(), clear_invalidations);
      if (capacity != 0) {
        EXPECT_LE(pool.size(), capacity);
      } else {
        EXPECT_EQ(pool.evictions(), 0u);
      }
    }
  }
}

TEST(BufferPoolPropertyTest, UnboundedPoolNeverRefetches) {
  Harness h;
  BufferPool pool = h.MakePool(0);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < kNumPages; ++p) {
      std::vector<uint8_t> got;
      UVD_CHECK_OK(pool.Read(p, &got));
    }
  }
  EXPECT_EQ(pool.misses(), kNumPages);
  EXPECT_EQ(pool.hits(), 2u * kNumPages);
  EXPECT_EQ(pool.size(), kNumPages);
}

TEST(BufferPoolPropertyTest, ConcurrentReadersStayCorrect) {
  for (size_t capacity : {size_t{2}, size_t{16}, size_t{0}}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    Harness h;
    BufferPool pool = h.MakePool(capacity);
    constexpr int kThreads = 6;
    constexpr int kReadsPerThread = 1500;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool, &failures, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        std::vector<uint8_t> got;
        for (int i = 0; i < kReadsPerThread; ++i) {
          const auto page =
              static_cast<PageId>(rng.UniformInt(0, kNumPages - 1));
          if (!pool.Read(page, &got).ok() || got != Fill(page, 0)) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (i % 7 == 0) {
            auto pinned = pool.Pin(page);
            if (!pinned.ok() ||
                pinned.value().data() != Fill(page, 0)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    // Conservation relaxes to an inequality under concurrency (racing
    // misses may double-load), but hits+misses covers every read and the
    // capacity bound still holds with no pins outstanding.
    const uint64_t reads =
        static_cast<uint64_t>(kThreads) * kReadsPerThread;
    EXPECT_GE(pool.hits() + pool.misses(), reads);
    if (capacity != 0) EXPECT_LE(pool.size(), capacity);
  }
}

}  // namespace
}  // namespace storage
}  // namespace uvd
