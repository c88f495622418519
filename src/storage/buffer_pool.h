// Fixed-capacity page buffer pool with pin/unpin lifetimes over the
// segmented-LRU policy core (common/segmented_lru.h) that QueryCache uses
// for decoded leaves, so FilePageManager can keep a hot working set in RAM
// while the index itself lives in a checksummed paged file. A one-pass
// scan (a cold-start bulk read, a full-index digest) cannot flush a query
// working set that has been referenced twice.
#ifndef UVD_STORAGE_BUFFER_POOL_H_
#define UVD_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/segmented_lru.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page_manager.h"

namespace uvd {
namespace storage {

struct BufferPoolOptions {
  /// Maximum resident pages. 0 means UNBOUNDED — every page ever read
  /// stays resident (the "infinite pool" oracle configuration of
  /// tests/storage/buffer_pool_property_test.cc). Pinned frames are never
  /// evicted, so the pool can transiently exceed the capacity when more
  /// than `capacity_pages` frames are pinned at once.
  size_t capacity_pages = 0;
};

/// One resident page. Lives in a list node of the policy core, so its
/// address is stable across LRU splices; BufferPool::PageRef holds a raw
/// pointer to it.
struct BufferPoolFrame {
  std::vector<uint8_t> data;
  int pins = 0;
};

/// \brief Pinnable segmented-LRU cache of page payloads over a backing
/// page reader.
///
/// The backing function is the miss path (typically PagedFile::ReadPage);
/// it runs OUTSIDE the pool lock, so two threads missing the same page may
/// both read it (duplicate I/O, identical bytes) rather than serializing
/// every miss behind one device read — the QueryCache loader discipline.
///
/// Accounting (billed to the Stats passed at construction, and mirrored in
/// exact local counters for tests): kBufferPoolHits for pins served from a
/// resident frame, kBufferPoolMisses for pins that went to the backing,
/// kBufferPoolEvictions for frames dropped to make room. Single-threaded,
/// the invariant  misses == size + evictions + invalidations  holds
/// exactly (every miss inserts a frame; every departure is an eviction or
/// an invalidation).
///
/// Thread safety: every method is safe for concurrent callers (one pool
/// mutex guards the frame table). Mutating a page (Put / Invalidate) while
/// another thread pins or reads THE SAME page is excluded by the
/// PageManager write contract, not by this lock — concurrent writers must
/// target distinct pages.
class BufferPool {
 public:
  using Backing = std::function<Status(PageId, std::vector<uint8_t>*)>;

  /// \brief Handle to a pinned frame. The payload reference stays valid —
  /// and the frame stays resident — until the ref is destroyed (frames
  /// live in list nodes, so pointers survive LRU splices).
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef();

    bool valid() const { return frame_ != nullptr; }
    /// Page payload, exactly page_size bytes. Safe to read without the
    /// pool lock: eviction skips pinned frames and same-page writes are
    /// excluded by contract.
    const std::vector<uint8_t>& data() const { return frame_->data; }

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, BufferPoolFrame* frame)
        : pool_(pool), frame_(frame) {}
    BufferPool* pool_ = nullptr;
    BufferPoolFrame* frame_ = nullptr;
  };

  BufferPool(const BufferPoolOptions& options, size_t page_size,
             Backing backing, Stats* stats = nullptr);

  /// Pins the page, loading it from the backing on a miss. The returned
  /// ref keeps the frame resident; drop it promptly — a pool whose every
  /// frame is pinned cannot evict and grows past its capacity.
  Result<PageRef> Pin(PageId id);

  /// Pin + copy + unpin: reads the page payload into *out.
  Status Read(PageId id, std::vector<uint8_t>* out);

  /// Write-through update: if the page is resident, its frame is
  /// overwritten with `data` zero-padded to page_size (recency state
  /// untouched). Absent pages are NOT admitted — the caller already has
  /// the bytes, and write traffic must not flush the read working set.
  void Put(PageId id, const std::vector<uint8_t>& data);

  /// Drops the page if resident. A pinned frame cannot be freed; it is
  /// unmapped immediately (future Pins miss) and reclaimed when the last
  /// ref drops.
  void Invalidate(PageId id);

  /// Invalidates every resident page.
  void Clear();

  size_t capacity_pages() const;
  size_t size() const;            ///< Resident (mapped) frames.
  size_t protected_size() const;  ///< Frames in the protected segment.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t invalidations() const;

 private:
  struct FramePinned {
    bool operator()(const BufferPoolFrame& frame) const { return frame.pins != 0; }
  };
  using Lru = SegmentedLru<PageId, BufferPoolFrame, FramePinned>;

  void Unpin(BufferPoolFrame* frame);

  const size_t page_size_;
  const Backing backing_;
  Stats* const stats_;

  mutable Mutex mu_;
  Lru lru_ UVD_GUARDED_BY(mu_);
  // Unmapped frames still pinned, freed at their last unpin.
  Lru::List doomed_ UVD_GUARDED_BY(mu_);
  uint64_t hits_ UVD_GUARDED_BY(mu_) = 0;
  uint64_t misses_ UVD_GUARDED_BY(mu_) = 0;
};

}  // namespace storage
}  // namespace uvd

#endif  // UVD_STORAGE_BUFFER_POOL_H_
