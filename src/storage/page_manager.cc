#include "storage/page_manager.h"

namespace uvd {
namespace storage {

Result<PageId> PageManager::Allocate() {
  pages_.emplace_back(page_size_, 0);
  return static_cast<PageId>(pages_.size() - 1);
}

Result<PageId> PageManager::AllocateRun(size_t count) {
  const PageId first = static_cast<PageId>(pages_.size());
  pages_.resize(pages_.size() + count, std::vector<uint8_t>(page_size_, 0));
  return first;
}

Status PageManager::Read(PageId id, std::vector<uint8_t>* out) const {
  if (id >= pages_.size()) {
    return Status::NotFound("page id out of range");
  }
  if (stats_ != nullptr) stats_->Add(Ticker::kPageReads);
  const bool timed = obs::MetricsEnabled();
  const uint64_t start_us = timed ? obs::NowMicros() : 0;
  *out = pages_[id];
  if (timed) {
    // Histogram recording is a relaxed atomic increment; Read stays safe
    // for concurrent callers. Purely observational — the returned bytes
    // and every ticker are identical with metrics off.
    read_latency_us_.Record(obs::NowMicros() - start_us);
  }
  return Status::OK();
}

Status PageManager::Write(PageId id, const std::vector<uint8_t>& data) {
  if (id >= pages_.size()) {
    return Status::NotFound("page id out of range");
  }
  if (data.size() > page_size_) {
    return Status::InvalidArgument("record larger than page size");
  }
  if (stats_ != nullptr) stats_->Add(Ticker::kPageWrites);
  std::vector<uint8_t>& page = pages_[id];
  std::copy(data.begin(), data.end(), page.begin());
  std::fill(page.begin() + static_cast<long>(data.size()), page.end(), 0);
  return Status::OK();
}

}  // namespace storage
}  // namespace uvd
