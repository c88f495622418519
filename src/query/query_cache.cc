#include "query/query_cache.h"

#include <algorithm>

namespace uvd {
namespace query {

QueryCache::QueryCache(const QueryCacheOptions& options) {
  capacity_ = std::max<size_t>(1, options.capacity);
  const size_t shards =
      std::min<size_t>(std::max(1, options.shards), capacity_);
  const size_t shard_capacity = std::max<size_t>(1, capacity_ / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity));
  }
}

Result<std::vector<rtree::LeafEntry>> QueryCache::GetOrLoad(uint32_t leaf,
                                                            const Loader& loader,
                                                            Stats* stats) {
  Shard& shard = ShardFor(leaf);
  {
    MutexLock lock(shard.mu);
    const auto hit = shard.lru.Lookup(leaf);
    if (hit.value != nullptr) {
      if (stats != nullptr) {
        stats->Add(Ticker::kQueryCacheHits);
        if (hit.promoted) stats->Add(Ticker::kQueryCachePromotions);
        if (hit.demoted) stats->Add(Ticker::kQueryCacheDemotions);
      }
      return *hit.value;  // copy: the caller consumes it
    }
  }

  if (stats != nullptr) stats->Add(Ticker::kQueryCacheMisses);
  auto loaded = loader();
  if (!loaded.ok()) return loaded.status();
  std::vector<rtree::LeafEntry> tuples = std::move(loaded).value();

  MutexLock lock(shard.mu);
  shard.lru.Insert(leaf, tuples);  // a concurrent miss may have won the race
  return tuples;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.Clear();
  }
}

size_t QueryCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

size_t QueryCache::protected_size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->lru.protected_size();
  }
  return n;
}

}  // namespace query
}  // namespace uvd
