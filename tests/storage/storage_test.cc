// Tests for the simulated disk: page manager I/O accounting, buffer pool
// LRU behaviour, record encode/decode round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/file_page_manager.h"
#include "storage/page_manager.h"
#include "storage/record.h"

namespace uvd {
namespace storage {
namespace {

TEST(PageManagerTest, AllocateAndRoundTrip) {
  Stats stats;
  PageManager pm(4096, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  const PageId b = pm.Allocate().ValueOrDie();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pm.num_pages(), 2u);
  EXPECT_EQ(pm.bytes_on_disk(), 2u * 4096u);

  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(pm.Write(a, data).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(pm.Read(a, &out).ok());
  ASSERT_EQ(out.size(), 4096u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[4], 5);
  EXPECT_EQ(out[5], 0);  // zero-padded
}

TEST(PageManagerTest, IoCounting) {
  Stats stats;
  PageManager pm(512, &stats);
  const PageId p = pm.Allocate().ValueOrDie();
  std::vector<uint8_t> buf(10, 7);
  ASSERT_TRUE(pm.Write(p, buf).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(pm.Read(p, &out).ok());
  ASSERT_TRUE(pm.Read(p, &out).ok());
  EXPECT_EQ(stats.Get(Ticker::kPageWrites), 1u);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 2u);
}

TEST(PageManagerTest, ErrorsOnBadPage) {
  PageManager pm(256);
  std::vector<uint8_t> out;
  EXPECT_EQ(pm.Read(42, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(pm.Write(42, out).code(), StatusCode::kNotFound);
}

TEST(PageManagerTest, RejectsOversizeWrite) {
  PageManager pm(16);
  const PageId p = pm.Allocate().ValueOrDie();
  std::vector<uint8_t> big(17, 1);
  EXPECT_EQ(pm.Write(p, big).code(), StatusCode::kInvalidArgument);
}

TEST(PageManagerTest, OverwriteClearsOldData) {
  PageManager pm(64);
  const PageId p = pm.Allocate().ValueOrDie();
  ASSERT_TRUE(pm.Write(p, std::vector<uint8_t>(64, 0xAB)).ok());
  ASSERT_TRUE(pm.Write(p, std::vector<uint8_t>{1}).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(pm.Read(p, &out).ok());
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[63], 0);
}

// Wires a pool's miss path to a PageManager (the arrangement
// FilePageManager uses with its file).
BufferPool MakePool(PageManager* pm, size_t capacity, Stats* stats) {
  BufferPoolOptions options;
  options.capacity_pages = capacity;
  return BufferPool(
      options, pm->page_size(),
      [pm](PageId id, std::vector<uint8_t>* out) { return pm->Read(id, out); },
      stats);
}

TEST(BufferPoolTest, HitsAndMisses) {
  Stats stats;
  PageManager pm(128, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  const PageId b = pm.Allocate().ValueOrDie();
  ASSERT_TRUE(pm.Write(a, {1}).ok());
  ASSERT_TRUE(pm.Write(b, {2}).ok());
  stats.Reset();

  BufferPool pool = MakePool(&pm, 2, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Read(a, &out).ok());  // miss
  ASSERT_TRUE(pool.Read(a, &out).ok());  // hit
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolMisses), 1u);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolHits), 1u);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 1u);  // only the miss hit disk
}

TEST(BufferPoolTest, LruEviction) {
  Stats stats;
  PageManager pm(64, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  const PageId b = pm.Allocate().ValueOrDie();
  const PageId c = pm.Allocate().ValueOrDie();
  BufferPool pool = MakePool(&pm, 2, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Read(a, &out).ok());
  ASSERT_TRUE(pool.Read(b, &out).ok());
  ASSERT_TRUE(pool.Read(a, &out).ok());  // a becomes most recent
  ASSERT_TRUE(pool.Read(c, &out).ok());  // evicts b
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 1u);
  stats.Reset();
  ASSERT_TRUE(pool.Read(a, &out).ok());  // still cached
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolHits), 1u);
  ASSERT_TRUE(pool.Read(b, &out).ok());  // was evicted -> miss
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolMisses), 1u);
}

TEST(BufferPoolTest, InvalidateForcesReread) {
  Stats stats;
  PageManager pm(64, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  BufferPool pool = MakePool(&pm, 4, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Read(a, &out).ok());
  ASSERT_TRUE(pm.Write(a, {9}).ok());
  pool.Invalidate(a);
  EXPECT_EQ(pool.invalidations(), 1u);
  ASSERT_TRUE(pool.Read(a, &out).ok());
  EXPECT_EQ(out[0], 9);
}

TEST(BufferPoolTest, PutIsWriteThrough) {
  Stats stats;
  PageManager pm(64, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  BufferPool pool = MakePool(&pm, 4, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(pm.Write(a, std::vector<uint8_t>(64, 0xAB)).ok());
  ASSERT_TRUE(pool.Read(a, &out).ok());
  ASSERT_TRUE(pm.Write(a, {7}).ok());
  pool.Put(a, {7});  // what FilePageManager::Write does after the file write
  ASSERT_TRUE(pool.Read(a, &out).ok());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 0);  // Put zero-pads like the page write did
  EXPECT_EQ(pool.misses(), 1u);  // second read was a (fresh) hit
}

TEST(BufferPoolTest, PinnedFramesSurviveEviction) {
  Stats stats;
  PageManager pm(64, &stats);
  const PageId a = pm.Allocate().ValueOrDie();
  const PageId b = pm.Allocate().ValueOrDie();
  const PageId c = pm.Allocate().ValueOrDie();
  ASSERT_TRUE(pm.Write(a, {1}).ok());
  BufferPool pool = MakePool(&pm, 1, &stats);
  auto pinned = pool.Pin(a);
  ASSERT_TRUE(pinned.ok());
  BufferPool::PageRef ref = std::move(pinned).value();
  std::vector<uint8_t> out;
  // Capacity is 1 and the only frame is pinned: these reads overflow
  // transiently but must not free a's frame.
  ASSERT_TRUE(pool.Read(b, &out).ok());
  ASSERT_TRUE(pool.Read(c, &out).ok());
  EXPECT_EQ(ref.data()[0], 1);  // still valid
  ref = BufferPool::PageRef();  // unpin
  ASSERT_TRUE(pool.Read(b, &out).ok());
  EXPECT_LE(pool.size(), 1u + 1u);  // back under control once unpinned
}

TEST(BufferPoolTest, ProtectedSegmentResistsScan) {
  Stats stats;
  PageManager pm(64, &stats);
  std::vector<PageId> pages;
  for (int i = 0; i < 12; ++i) pages.push_back(pm.Allocate().ValueOrDie());
  BufferPool pool = MakePool(&pm, 4, &stats);
  std::vector<uint8_t> out;
  // Reference pages 0 and 1 twice: they join the protected segment.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(pool.Read(pages[0], &out).ok());
    ASSERT_TRUE(pool.Read(pages[1], &out).ok());
  }
  EXPECT_EQ(pool.protected_size(), 2u);
  // A one-pass scan over everything else churns probationary only.
  for (size_t i = 2; i < pages.size(); ++i) {
    ASSERT_TRUE(pool.Read(pages[i], &out).ok());
  }
  const uint64_t misses_before = pool.misses();
  ASSERT_TRUE(pool.Read(pages[0], &out).ok());
  ASSERT_TRUE(pool.Read(pages[1], &out).ok());
  EXPECT_EQ(pool.misses(), misses_before);  // working set survived the scan
}

TEST(RecordTest, RoundTripPrimitives) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI32(-42);
  enc.PutDouble(3.14159);

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU16(), 0xBEEF);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI32(), -42);
  EXPECT_DOUBLE_EQ(dec.GetDouble(), 3.14159);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(RecordTest, SkipAndPosition) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(1);
  enc.PutU32(2);
  Decoder dec(buf);
  dec.Skip(4);
  EXPECT_EQ(dec.position(), 4u);
  EXPECT_EQ(dec.GetU32(), 2u);
}

TEST(FilePageManagerTest, RoundTripAndAccounting) {
  const std::string path = ::testing::TempDir() + "/uvd_fpm_roundtrip";
  std::remove(path.c_str());
  Stats stats;
  FilePageManagerOptions options;
  options.buffer_pool_pages = 2;
  auto fpm = FilePageManager::Create(path, 256, options, &stats).ValueOrDie();
  const Result<PageId> a_or = fpm->Allocate();
  const Result<PageId> b_or = fpm->Allocate();
  ASSERT_TRUE(a_or.ok()) << a_or.status().ToString();
  ASSERT_TRUE(b_or.ok()) << b_or.status().ToString();
  const PageId a = a_or.value();
  const PageId b = b_or.value();

  std::vector<uint8_t> data(256, 0x5A);
  ASSERT_TRUE(fpm->Write(a, data).ok());
  std::vector<uint8_t> out;
  // Put has no admission policy (build writes must not flood the pool), so
  // the first read is a miss billed as one physical page read...
  stats.Reset();
  ASSERT_TRUE(fpm->Read(a, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 1u);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolMisses), 1u);
  // ...and the second is a pool hit: no new physical read.
  ASSERT_TRUE(fpm->Read(a, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 1u);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolHits), 1u);
  // Once resident, a write-through Put updates the frame in place: the
  // next read is a hit AND serves the new bytes.
  std::vector<uint8_t> updated(256, 0x6B);
  ASSERT_TRUE(fpm->Write(a, updated).ok());
  ASSERT_TRUE(fpm->Read(a, &out).ok());
  EXPECT_EQ(out, updated);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 1u);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolHits), 2u);
  // A page never touched since creation misses and reads the file.
  ASSERT_TRUE(fpm->Read(b, &out).ok());
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 2u);
  UVD_CHECK_OK(fpm->Close());
  std::remove(path.c_str());
}

TEST(FilePageManagerTest, PoolNeverCachesAFailedRead) {
  const std::string path = ::testing::TempDir() + "/uvd_fpm_read_fault";
  std::remove(path.c_str());
  Stats stats;
  FilePageManagerOptions options;
  options.buffer_pool_pages = 4;
  auto fpm = FilePageManager::Create(path, 256, options, &stats).ValueOrDie();
  const PageId p = fpm->Allocate().ValueOrDie();
  const std::vector<uint8_t> data(256, 0x3C);
  ASSERT_TRUE(fpm->Write(p, data).ok());

  // The first physical read of p fails: the miss must neither be billed
  // nor leave a frame behind.
  fpm->file()->SetFaultHook([](IoOp op, uint64_t index) {
    return op == IoOp::kRead && index == 0 ? Fault::kError : Fault::kNone;
  });
  const uint64_t misses = stats.Get(Ticker::kBufferPoolMisses);
  const size_t resident = fpm->pool()->size();
  std::vector<uint8_t> out;
  EXPECT_EQ(fpm->Read(p, &out).code(), StatusCode::kIOError);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolMisses), misses);
  EXPECT_EQ(fpm->pool()->size(), resident);

  fpm->file()->SetFaultHook(nullptr);
  ASSERT_TRUE(fpm->Read(p, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats.Get(Ticker::kBufferPoolMisses), misses + 1);
  UVD_CHECK_OK(fpm->Close());
  std::remove(path.c_str());
}

TEST(FilePageManagerTest, ConcurrentReadersSeeTheWrittenBytes) {
  // Read takes no manager-wide lock: readers share only the file (pread)
  // and the internally locked pool. Four threads read every page in
  // staggered orders, with the pool off and with a pool small enough to
  // churn, and each must digest exactly the bytes written.
  constexpr uint32_t kPages = 32;
  constexpr uint32_t kThreads = 4;
  constexpr size_t kPageSize = 256;
  for (const size_t pool_pages : {size_t{0}, size_t{8}}) {
    SCOPED_TRACE("pool_pages=" + std::to_string(pool_pages));
    const std::string path = ::testing::TempDir() + "/uvd_fpm_concurrent";
    std::remove(path.c_str());
    Stats stats;
    FilePageManagerOptions options;
    options.buffer_pool_pages = pool_pages;
    auto fpm = FilePageManager::Create(path, kPageSize, options, &stats).ValueOrDie();
    const PageId first = fpm->AllocateRun(kPages).ValueOrDie();
    uint64_t want = Fnv64(nullptr, 0);
    for (uint32_t k = 0; k < kPages; ++k) {
      std::vector<uint8_t> data(kPageSize);
      for (size_t j = 0; j < kPageSize; ++j) data[j] = static_cast<uint8_t>(k * 31 + j);
      ASSERT_TRUE(fpm->Write(first + k, data).ok());
      want = Fnv64(data.data(), data.size(), want);
    }

    std::vector<uint64_t> digests(kThreads, 0);
    std::vector<std::thread> readers;
    for (uint32_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        std::vector<std::vector<uint8_t>> pages(kPages);
        for (uint32_t round = 0; round < 3; ++round) {
          for (uint32_t i = 0; i < kPages; ++i) {
            const uint32_t k = (i + t * 7) % kPages;
            if (!fpm->Read(first + k, &pages[k]).ok()) return;
          }
        }
        uint64_t h = Fnv64(nullptr, 0);
        for (const auto& page : pages) h = Fnv64(page.data(), page.size(), h);
        digests[t] = h;
      });
    }
    for (std::thread& r : readers) r.join();
    for (uint32_t t = 0; t < kThreads; ++t) EXPECT_EQ(digests[t], want) << "reader " << t;
    UVD_CHECK_OK(fpm->Close());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace uvd
