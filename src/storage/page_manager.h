// Page-granular storage interface plus the in-RAM simulated disk that
// implements it. The paper's evaluation (Sec. VI) stores index leaf levels
// and object pdfs on disk and reports page I/O counts (Fig. 6(b)); this
// module is the unit of that accounting. The file-backed implementation
// (storage/file_page_manager.h) persists the same pages in a checksummed
// single-file store behind this interface, so every index structure can be
// pointed at either backend without change.
#ifndef UVD_STORAGE_PAGE_MANAGER_H_
#define UVD_STORAGE_PAGE_MANAGER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "obs/latency_histogram.h"

namespace uvd {
namespace storage {

using PageId = uint32_t;
constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Default page size used throughout the paper's setup (4 KB pages).
constexpr size_t kDefaultPageSize = 4096;

/// \brief Page-granular storage with I/O tickers.
///
/// The base class IS the in-RAM simulated disk (pages live in a vector).
/// Every accessor that touches the page table is virtual, so subclasses can
/// replace the backing store wholesale: FilePageManager
/// (storage/file_page_manager.h) stores pages in a checksummed paged file
/// with an optional buffer pool.
///
/// Error model: every call reports its own failure in its own return
/// value — Allocate/AllocateRun return Result<PageId> — so a caller never
/// stores an id the store did not hand out. The one sticky state is a
/// dead PagedFile handle after an injected crash (storage/paged_file.h).
///
/// Thread safety: concurrent Read calls are safe (Stats tickers are
/// atomic). Allocate mutates the page table (it can reallocate the backing
/// vector) and must not run while ANY other thread reads or writes.
/// Concurrent Write calls are safe iff they target DISTINCT, already
/// allocated pages and no Allocate runs meanwhile — each write then touches
/// only its own page's buffer. The parallel build pipeline relies on
/// exactly that: UVIndex::FinalizeWith allocates every leaf page up front
/// in one AllocateRun, then fans the page writes out across workers.
/// Subclasses must honor the same contract (FilePageManager does: its
/// buffer pool is internally locked and file writes go to disjoint
/// offsets).
///
/// This phase discipline (allocate-then-share) is intentionally mutex-free
/// — there is no interleaving to guard, so there is nothing here for the
/// thread-safety analysis (common/thread_annotations.h) to annotate; the
/// contract lives in this comment and in the TSan CI job instead
/// (docs/STATIC_ANALYSIS.md, "Phase-disciplined structures").
class PageManager {
 public:
  explicit PageManager(size_t page_size = kDefaultPageSize, Stats* stats = nullptr)
      : page_size_(page_size), stats_(stats) {}
  virtual ~PageManager() = default;

  size_t page_size() const { return page_size_; }
  virtual size_t num_pages() const { return pages_.size(); }
  virtual uint64_t bytes_on_disk() const { return pages_.size() * page_size_; }

  /// Allocates a zero-filled page and returns its id.
  virtual Result<PageId> Allocate();

  /// Allocates `count` zero-filled pages with consecutive ids and returns
  /// the first id — the same ids `count` Allocate() calls would hand out,
  /// minus the per-call reallocation, and the arena under parallel
  /// finalization: once the run is reserved, workers may Write its pages
  /// concurrently. Returns the would-be next id when count == 0.
  virtual Result<PageId> AllocateRun(size_t count);

  /// Copies the page contents into *out (resized to page_size()).
  virtual Status Read(PageId id, std::vector<uint8_t>* out) const;

  /// Writes data (at most page_size() bytes; shorter data is zero-padded).
  virtual Status Write(PageId id, const std::vector<uint8_t>& data);

  /// Per-manager page-read latency distribution in microseconds — the I/O
  /// histogram the metrics registry unifies (register it as e.g.
  /// "shard0.storage.page.read.latency.us"): the measured time of each
  /// successful read (a vector copy in RAM, file or pool time for
  /// FilePageManager). Recording is skipped while obs::MetricsEnabled() is
  /// off.
  const obs::LatencyHistogram& read_latency_histogram() const {
    return read_latency_us_;
  }

 protected:
  /// Billing helpers for subclasses that replace the backing store.
  Stats* stats() const { return stats_; }
  void RecordReadLatencyUs(uint64_t us) const { read_latency_us_.Record(us); }

 private:
  size_t page_size_;
  Stats* stats_;
  mutable obs::LatencyHistogram read_latency_us_;  // recorded in const Read
  std::vector<std::vector<uint8_t>> pages_;
};

}  // namespace storage
}  // namespace uvd

#endif  // UVD_STORAGE_PAGE_MANAGER_H_
