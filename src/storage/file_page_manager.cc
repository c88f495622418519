#include "storage/file_page_manager.h"

#include <utility>

#include "obs/latency_histogram.h"

namespace uvd {
namespace storage {

FilePageManager::FilePageManager(std::unique_ptr<PagedFile> file,
                                 const FilePageManagerOptions& options,
                                 Stats* stats)
    : PageManager(file->page_size(), stats), file_(std::move(file)) {
  if (options.buffer_pool_pages > 0) {
    BufferPoolOptions pool_options;
    pool_options.capacity_pages = options.buffer_pool_pages;
    // The pool's miss path is the uncached file read, so kPageReads keeps
    // counting physical I/O only.
    pool_ = std::make_unique<BufferPool>(
        pool_options, page_size(),
        [this](PageId id, std::vector<uint8_t>* out) {
          return FileRead(id, out);
        },
        stats);
  }
}

Result<std::unique_ptr<FilePageManager>> FilePageManager::Create(
    const std::string& path, size_t page_size,
    const FilePageManagerOptions& options, Stats* stats) {
  auto file = PagedFile::Create(path, page_size);
  if (!file.ok()) return file.status();
  return std::unique_ptr<FilePageManager>(
      new FilePageManager(std::move(file).value(), options, stats));
}

Result<std::unique_ptr<FilePageManager>> FilePageManager::Open(
    const std::string& path, const FilePageManagerOptions& options,
    Stats* stats) {
  auto file = PagedFile::Open(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<FilePageManager>(
      new FilePageManager(std::move(file).value(), options, stats));
}

Result<PageId> FilePageManager::Allocate() { return file_->AllocatePages(1); }

Result<PageId> FilePageManager::AllocateRun(size_t count) {
  if (count == 0) return file_->page_count();
  return file_->AllocatePages(static_cast<uint32_t>(count));
}

Status FilePageManager::FileRead(PageId id, std::vector<uint8_t>* out) const {
  if (stats() != nullptr) stats()->Add(Ticker::kPageReads);
  return file_->ReadPage(id, out);
}

Status FilePageManager::Read(PageId id, std::vector<uint8_t>* out) const {
  const bool timed = obs::MetricsEnabled();
  const uint64_t start_us = timed ? obs::NowMicros() : 0;
  Status st = pool_ != nullptr ? pool_->Read(id, out) : FileRead(id, out);
  if (timed && st.ok()) {
    RecordReadLatencyUs(obs::NowMicros() - start_us);
  }
  return st;
}

Status FilePageManager::Write(PageId id, const std::vector<uint8_t>& data) {
  if (stats() != nullptr) stats()->Add(Ticker::kPageWrites);
  UVD_RETURN_NOT_OK(file_->WritePage(id, data.data(), data.size()));
  // Write-through: a resident frame must never serve stale bytes.
  if (pool_ != nullptr) pool_->Put(id, data);
  return Status::OK();
}

void FilePageManager::RegisterMetrics(obs::MetricsRegistry* registry,
                                      const std::string& prefix) const {
  registry->RegisterHistogram(prefix + ".page.read.latency.us",
                              &read_latency_histogram());
  if (pool_ == nullptr) return;
  const BufferPool* pool = pool_.get();
  registry->RegisterGauge(prefix + ".bufferpool.resident.pages",
                          [pool] { return static_cast<double>(pool->size()); });
  registry->RegisterCounter(prefix + ".bufferpool.hits",
                            [pool] { return pool->hits(); });
  registry->RegisterCounter(prefix + ".bufferpool.misses",
                            [pool] { return pool->misses(); });
  registry->RegisterCounter(prefix + ".bufferpool.evictions",
                            [pool] { return pool->evictions(); });
}

}  // namespace storage
}  // namespace uvd
