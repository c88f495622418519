// Statistics registry in the spirit of rocksdb::Statistics: named tickers
// incremented on hot paths, snapshotted by benchmarks. Page I/O tickers are
// the unit reported in Fig. 6(b) of the paper.
#ifndef UVD_COMMON_STATS_H_
#define UVD_COMMON_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace uvd {

/// Ticker identifiers. Extend here and in TickerName() together.
enum class Ticker : uint32_t {
  kPageReads = 0,       ///< Simulated disk pages read.
  kPageWrites,          ///< Simulated disk pages written.
  kBufferPoolHits,      ///< Page reads served from the buffer pool.
  kBufferPoolMisses,    ///< Page reads that went to disk (real or simulated).
  kBufferPoolEvictions, ///< Frames evicted to admit a missed page.
  kRtreeNodeVisits,     ///< R-tree nodes popped during any traversal.
  kRtreeLeafReads,      ///< R-tree leaf pages fetched (I/O unit for R-tree).
  kUvIndexNodeVisits,   ///< UV-index non-leaf nodes visited.
  kUvIndexLeafReads,    ///< UV-index leaf pages fetched (I/O unit for UVD).
  kHyperbolaTests,      ///< Point-vs-outside-region dominance tests.
  kEnvelopeInsertions,  ///< Radial-envelope constraint insertions.
  kOverlapChecks,       ///< CheckOverlap (Algorithm 5) invocations.
  kFourPointTests,      ///< 4-point corner tests inside CheckOverlap.
  kQualificationIntegrations,  ///< Numerical integrations performed.
  kQueryCacheHits,      ///< Leaf page-list lookups served by the query cache.
  kQueryCacheMisses,    ///< Leaf page-list lookups that read through to disk.
  kQueryCachePromotions,  ///< Probationary entries promoted on re-reference.
  kQueryCacheDemotions,   ///< Protected entries demoted on segment overflow.
  kLeafMemoHits,        ///< Traversal-session leaf decodes served from the memo.
  kLeafMemoMisses,      ///< Traversal-session leaf decodes that read the page.
  kNumTickers,  // must be last
};

/// Returns the display name for a ticker.
const char* TickerName(Ticker t);

/// \brief Counter bundle. Tickers are relaxed atomics, so one Stats may be
/// shared by concurrent readers (e.g. the R-tree billing leaf I/O from
/// several build workers). Totals are exact; cross-ticker snapshots taken
/// while work is in flight are not. Hot loops should still prefer a
/// per-worker shard merged at the end (MergeFrom) over hammering a shared
/// instance — the parallel build pipeline does exactly that.
///
/// Deliberately lock-free: there is no mutex here for the thread-safety
/// analysis to check (common/thread_annotations.h), and none is needed —
/// every member is a std::atomic and no operation spans two counters
/// (docs/STATIC_ANALYSIS.md, "Atomics vs. guarded fields").
class Stats {
 public:
  Stats() = default;
  Stats(const Stats& other) { CopyFrom(other); }
  Stats& operator=(const Stats& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void Add(Ticker t, uint64_t delta = 1) {
    counters_[static_cast<uint32_t>(t)].fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Get(Ticker t) const {
    return counters_[static_cast<uint32_t>(t)].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  }

  /// Adds every counter of `other` into this instance. Used to fold
  /// per-worker shards into the caller's Stats after a parallel phase.
  void MergeFrom(const Stats& other) {
    for (uint32_t i = 0; i < counters_.size(); ++i) {
      counters_[i].fetch_add(other.counters_[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
  }

  /// Multi-line human-readable dump in enum (declaration) order. By
  /// default only non-zero counters print; `include_zeros` emits every
  /// ticker so two dumps always share a key set and diff line-by-line.
  std::string ToString(bool include_zeros = false) const;

  /// One JSON object {"ticker.name": value, ...} in enum order. Zero
  /// counters are included by default for clean cross-run diffs; pass
  /// false for a sparse document.
  std::string ToJson(bool include_zeros = true) const;

 private:
  void CopyFrom(const Stats& other) {
    for (uint32_t i = 0; i < counters_.size(); ++i) {
      counters_[i].store(other.counters_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
  }

  std::array<std::atomic<uint64_t>, static_cast<uint32_t>(Ticker::kNumTickers)>
      counters_{};
};

}  // namespace uvd

#endif  // UVD_COMMON_STATS_H_
