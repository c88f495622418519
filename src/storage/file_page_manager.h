// File-backed PageManager: the same page interface every index structure
// builds against, persisted in a checksummed PagedFile with an optional
// buffer pool in front. Point UVDiagramOptions::storage_path at a file
// and the whole stack — ObjectStore records, R-tree leaves, UV-index
// nodes — lands here instead of RAM; reopen the file later and serve the
// index cold (core/index_unit.h, docs/STORAGE.md).
#ifndef UVD_STORAGE_FILE_PAGE_MANAGER_H_
#define UVD_STORAGE_FILE_PAGE_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics_registry.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "storage/paged_file.h"

namespace uvd {
namespace storage {

struct FilePageManagerOptions {
  /// Buffer pool capacity in pages. 0 disables the pool entirely (every
  /// read goes to the file); nonzero bounds the resident set.
  size_t buffer_pool_pages = 0;
};

/// \brief PageManager over a PagedFile, with an optional buffer pool.
///
/// Read records MEASURED wall time (pool hit or file read, checksum
/// included) into the shared page-read histogram.
///
/// Accounting: kPageReads is billed only when the FILE is read (a pool
/// miss, or every read with the pool disabled) — pool hits bill
/// kBufferPoolHits instead, so "page reads" keeps meaning physical I/O.
/// Writes always reach the file (write-through) and bill kPageWrites.
///
/// Error model: each call returns its own failure — Allocate/AllocateRun
/// as the Result's Status, Read/Write/Checkpoint/Close as theirs. After an
/// injected crash the PagedFile handle is dead, so every later write,
/// sync and checkpoint fails with IOError (paged_file.h).
///
/// Thread safety: same contract as the base class (concurrent reads safe;
/// concurrent writes safe iff to distinct pages; Allocate/Checkpoint/Close
/// must not overlap anything). The pool is internally locked and file
/// reads and writes go to disjoint offsets.
class FilePageManager : public PageManager {
 public:
  /// Creates a fresh store at `path` (truncating any existing file).
  static Result<std::unique_ptr<FilePageManager>> Create(
      const std::string& path, size_t page_size,
      const FilePageManagerOptions& options = {}, Stats* stats = nullptr);

  /// Opens an existing store; page size comes from its metapage. Failure
  /// codes are PagedFile::Open's (distinct per defect class).
  static Result<std::unique_ptr<FilePageManager>> Open(
      const std::string& path, const FilePageManagerOptions& options = {},
      Stats* stats = nullptr);

  size_t num_pages() const override { return file_->page_count(); }
  /// Real file footprint: metapage block plus every page frame.
  uint64_t bytes_on_disk() const override {
    return kMetaBlockSize +
           static_cast<uint64_t>(file_->page_count()) *
               (kPageFrameHeaderSize + page_size());
  }

  Result<PageId> Allocate() override;
  Result<PageId> AllocateRun(size_t count) override;
  Status Read(PageId id, std::vector<uint8_t>* out) const override;
  Status Write(PageId id, const std::vector<uint8_t>& data) override;

  /// Durability point — see PagedFile::Checkpoint. Callers stash their
  /// root locator via SetBootstrap first.
  Status Checkpoint() { return file_->Checkpoint(); }
  /// Checkpoint + close the file. The manager is unusable afterwards.
  Status Close() { return file_->Close(); }

  Status SetBootstrap(const std::vector<uint8_t>& blob) {
    return file_->SetBootstrap(blob);
  }
  const std::vector<uint8_t>& bootstrap() const { return file_->bootstrap(); }

  /// The underlying file — fault harnesses install their FaultHook here.
  PagedFile* file() { return file_.get(); }
  /// The buffer pool, or nullptr when disabled.
  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }

  /// Registers this manager's observable state under `prefix`: the
  /// page-read latency histogram, pool occupancy gauge and hit/miss/
  /// eviction counters (pool ones only when a pool exists).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  FilePageManager(std::unique_ptr<PagedFile> file,
                  const FilePageManagerOptions& options, Stats* stats);

  /// Uncached read straight from the file, with kPageReads billing.
  Status FileRead(PageId id, std::vector<uint8_t>* out) const;

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferPool> pool_;  // null when disabled
};

}  // namespace storage
}  // namespace uvd

#endif  // UVD_STORAGE_FILE_PAGE_MANAGER_H_
