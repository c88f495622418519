// Tests for the simulated disk: page manager I/O accounting, buffer pool
// LRU behaviour, record encode/decode round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/timer.h"
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
  const PageId a = pm.Allocate();
  const PageId b = pm.Allocate();
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
  const PageId p = pm.Allocate();
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
  const PageId p = pm.Allocate();
  std::vector<uint8_t> big(17, 1);
  EXPECT_EQ(pm.Write(p, big).code(), StatusCode::kInvalidArgument);
}

TEST(PageManagerTest, OverwriteClearsOldData) {
  PageManager pm(64);
  const PageId p = pm.Allocate();
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
  const PageId a = pm.Allocate();
  const PageId b = pm.Allocate();
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
  const PageId a = pm.Allocate();
  const PageId b = pm.Allocate();
  const PageId c = pm.Allocate();
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
  const PageId a = pm.Allocate();
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
  const PageId a = pm.Allocate();
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
  const PageId a = pm.Allocate();
  const PageId b = pm.Allocate();
  const PageId c = pm.Allocate();
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
  for (int i = 0; i < 12; ++i) pages.push_back(pm.Allocate());
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
  const PageId a = fpm->Allocate();
  const PageId b = fpm->Allocate();
  ASSERT_NE(a, kInvalidPageId);
  ASSERT_NE(b, kInvalidPageId);
  UVD_CHECK_OK(fpm->io_status());

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

TEST(FilePageManagerTest, RealReadsIgnoreTheSimulatedLatencySeam) {
  // The base PageManager models a 2010-era disk by SLEEPING per read;
  // FilePageManager does real I/O and must report MEASURED time instead —
  // reads must not inherit the simulation (the latency seam,
  // docs/STORAGE.md). 20 ms x 32 reads would be >600 ms if it did.
  const std::string path = ::testing::TempDir() + "/uvd_fpm_seam";
  std::remove(path.c_str());
  Stats stats;
  auto fpm = FilePageManager::Create(path, 256, {}, &stats).ValueOrDie();
  const PageId first = fpm->AllocateRun(32);
  ASSERT_NE(first, kInvalidPageId);

  PageManager::SetSimulatedReadLatencyUs(20000);
  Timer timer;
  std::vector<uint8_t> out;
  for (uint32_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(fpm->Read(first + i, &out).ok());
  }
  const double elapsed = timer.ElapsedSeconds();
  PageManager::SetSimulatedReadLatencyUs(0);
  EXPECT_LT(elapsed, 0.3) << "FilePageManager::Read slept the simulated "
                             "latency instead of measuring real I/O";

  // The base class keeps the simulation: same knob, in-RAM manager, one
  // read must take at least the configured 20 ms.
  PageManager ram(256, &stats);
  const PageId p = ram.Allocate();
  PageManager::SetSimulatedReadLatencyUs(20000);
  Timer ram_timer;
  ASSERT_TRUE(ram.Read(p, &out).ok());
  PageManager::SetSimulatedReadLatencyUs(0);
  EXPECT_GE(ram_timer.ElapsedSeconds(), 0.015);
  UVD_CHECK_OK(fpm->Close());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace uvd
