#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>

namespace uvd {
namespace storage {

BufferPool::BufferPool(const BufferPoolOptions& options, size_t page_size,
                       Backing backing, Stats* stats)
    : page_size_(page_size),
      backing_(std::move(backing)),
      stats_(stats),
      lru_(options.capacity_pages) {}

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& other) noexcept {
  if (this == &other) return *this;
  if (frame_ != nullptr) pool_->Unpin(frame_);
  pool_ = other.pool_;
  frame_ = other.frame_;
  other.pool_ = nullptr;
  other.frame_ = nullptr;
  return *this;
}

BufferPool::PageRef::~PageRef() {
  if (frame_ != nullptr) pool_->Unpin(frame_);
}

Result<BufferPool::PageRef> BufferPool::Pin(PageId id) {
  {
    MutexLock lock(mu_);
    BufferPoolFrame* frame = lru_.Lookup(id).value;
    if (frame != nullptr) {
      ++hits_;
      if (stats_ != nullptr) stats_->Add(Ticker::kBufferPoolHits);
      ++frame->pins;
      return PageRef(this, frame);
    }
  }

  // Miss: load outside the lock (QueryCache loader discipline — duplicate
  // reads of the same page beat serializing every miss behind one I/O).
  std::vector<uint8_t> data;
  UVD_RETURN_NOT_OK(backing_(id, &data));

  MutexLock lock(mu_);
  ++misses_;
  if (stats_ != nullptr) stats_->Add(Ticker::kBufferPoolMisses);
  // A concurrent miss may have won the insertion race; Insert then adopts
  // its frame (the bytes are identical — the backing is read-only under
  // concurrency).
  const uint64_t evictions_before = lru_.evictions();
  BufferPoolFrame* frame = lru_.Insert(id, BufferPoolFrame{std::move(data), 0}).first;
  const uint64_t evicted = lru_.evictions() - evictions_before;
  if (stats_ != nullptr && evicted != 0) {
    stats_->Add(Ticker::kBufferPoolEvictions, evicted);
  }
  ++frame->pins;
  return PageRef(this, frame);
}

Status BufferPool::Read(PageId id, std::vector<uint8_t>* out) {
  auto pinned = Pin(id);
  if (!pinned.ok()) return pinned.status();
  PageRef ref = std::move(pinned).value();
  *out = ref.data();
  return Status::OK();
}

void BufferPool::Put(PageId id, const std::vector<uint8_t>& data) {
  MutexLock lock(mu_);
  BufferPoolFrame* frame = lru_.Peek(id);
  if (frame == nullptr) return;
  const size_t n = std::min(data.size(), frame->data.size());
  std::copy(data.begin(), data.begin() + static_cast<long>(n),
            frame->data.begin());
  std::fill(frame->data.begin() + static_cast<long>(n), frame->data.end(), 0);
}

void BufferPool::Invalidate(PageId id) {
  MutexLock lock(mu_);
  lru_.Erase(id, &doomed_);
}

void BufferPool::Clear() {
  MutexLock lock(mu_);
  lru_.Clear(&doomed_);
}

void BufferPool::Unpin(BufferPoolFrame* frame) {
  MutexLock lock(mu_);
  if (--frame->pins == 0 && !doomed_.empty()) {
    doomed_.remove_if([frame](const Lru::Node& node) { return &node.value == frame; });
  }
}

size_t BufferPool::capacity_pages() const {
  MutexLock lock(mu_);
  return lru_.capacity();
}

size_t BufferPool::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

size_t BufferPool::protected_size() const {
  MutexLock lock(mu_);
  return lru_.protected_size();
}

uint64_t BufferPool::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t BufferPool::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

uint64_t BufferPool::evictions() const {
  MutexLock lock(mu_);
  return lru_.evictions();
}

uint64_t BufferPool::invalidations() const {
  MutexLock lock(mu_);
  return lru_.erasures();
}

}  // namespace storage
}  // namespace uvd
