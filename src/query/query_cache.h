// Cell-level result cache for the query engine: memoizes the UV-index
// point-location + page-list phase (the decoded leaf tuples) keyed by leaf
// node index. Moving-NN style workloads probe dense sequences of nearby
// points that land in the same UV-cell (Ali et al., probabilistic moving
// nearest-neighbor queries), so consecutive probes skip the leaf's page
// chain entirely. Because the cached value is byte-for-byte the output of
// UVIndex::ReadLeafEntries, every downstream phase (d_minmax verification,
// object retrieval, integration) sees identical input and the engine's
// answers are bitwise-equal with the cache on or off.
#ifndef UVD_QUERY_QUERY_CACHE_H_
#define UVD_QUERY_QUERY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/segmented_lru.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "rtree/leaf_codec.h"

namespace uvd {
namespace query {

/// Cache sizing. The entry unit is one leaf's full tuple list (typically
/// one short page chain), so even small capacities cover a trajectory's
/// working set.
struct QueryCacheOptions {
  size_t capacity = 1024;  ///< Max cached leaves across all shards.
  int shards = 8;          ///< Lock shards; <= 1 means one global lock.
};

/// \brief Bounded, sharded segmented-LRU map from leaf index to decoded
/// leaf tuples.
///
/// Admission policy: one SegmentedLru (common/segmented_lru.h) per lock
/// shard, so untouched-once scan traffic can never displace the
/// re-referenced set. Promotions/demotions are billed as
/// kQueryCachePromotions / kQueryCacheDemotions.
///
/// Thread safety: every method is safe for concurrent callers. Each shard
/// has its own mutex + policy core; a leaf's shard is fixed (leaf % shards),
/// so two workers only contend when their leaves collide on a shard. The
/// loader runs outside the shard lock — two workers missing the same leaf
/// simultaneously may both read it (duplicate I/O, identical bytes) rather
/// than serializing every miss in the shard behind one page-chain read.
class QueryCache {
 public:
  using Loader = std::function<Result<std::vector<rtree::LeafEntry>>()>;

  explicit QueryCache(const QueryCacheOptions& options = {});

  /// Returns the tuples for `leaf`, invoking `loader` on a miss and
  /// caching its value. Hits/misses are billed to `stats` (the calling
  /// worker's shard) as kQueryCacheHits / kQueryCacheMisses.
  Result<std::vector<rtree::LeafEntry>> GetOrLoad(uint32_t leaf,
                                                  const Loader& loader,
                                                  Stats* stats = nullptr);

  /// Drops every entry (e.g. after UVDiagram::InsertObject extends leaf
  /// page chains).
  void Clear();

  /// Current number of cached leaves (sums shard sizes; approximate while
  /// writers are in flight).
  size_t size() const;

  /// Current number of protected (re-referenced) leaves across shards.
  size_t protected_size() const;

  size_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    mutable Mutex mu;
    SegmentedLru<uint32_t, std::vector<rtree::LeafEntry>> lru UVD_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint32_t leaf) { return *shards_[leaf % shards_.size()]; }

  size_t capacity_;  // total, across shards
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace query
}  // namespace uvd

#endif  // UVD_QUERY_QUERY_CACHE_H_
