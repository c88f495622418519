// Shared-traversal layer for stage 1: neighboring anchors issue
// k-NN and range queries against nearly identical regions of the R-tree,
// so per-anchor root restarts and leaf re-decodes are massively redundant
// (the divide-and-conquer-of-envelopes observation — spatially adjacent
// subproblems share their lower envelope structure). A TraversalSession is
// a per-worker object reused across a tile of Morton-adjacent anchors that
// keeps three pieces of state between queries:
//
//   * Previous-anchor bound — dist_min is 1-Lipschitz in the query point,
//     so B = prev_kth_dist + |q - q_prev| upper-bounds the current k-th
//     distance and sizes the pool check below.
//   * Decoded-leaf memo — the segmented-LRU policy core
//     (common/segmented_lru.h, single-threaded here) over DecodeLeafEntries
//     output, so a pool rebuild decodes each leaf page at most once per
//     tile sweep instead of once per rebuild. A failed leaf read is never
//     memoized: it becomes the session's sticky status().
//   * Entry pool — a materialized superset ball: every entry whose
//     dist_min to pool_center_ is <= pool_radius_. While consecutive
//     anchors stay inside the ball (dist_min is 1-Lipschitz in the query
//     point, so needed_radius + |q - pool_center| <= pool_radius proves
//     coverage), both query kinds are answered by a flat scan of the pool
//     — no heap, no tree descent, no per-entry memo lookups. A k-NN the
//     pool cannot cover goes to RTree::KNearestByDistMin (the one
//     best-first k-NN), whose k-th distance re-centers the pool; the
//     rebuild walks the in-memory levels from the root and reads leaves
//     through the memo (every ~kPoolMargin * radius of Morton travel;
//     traversal_session.cc).
//
// Determinism: KNearest returns the k canonically smallest entries by
// (dist_min, id) and CentersInRange an order-insensitive candidate set —
// both pure functions of the query, independent of session state, tile
// size and anchor order (traversal_session_test pins this against fresh
// RTree traversals). Only the traversal-effort tickers
// (kRtreeNodeVisits / kRtreeLeafReads / kLeafMemo*) differ from the
// per-anchor oracle.
//
// Thread safety: none — one session per worker, by design.
#ifndef UVD_RTREE_TRAVERSAL_SESSION_H_
#define UVD_RTREE_TRAVERSAL_SESSION_H_

#include <cstdint>
#include <vector>

#include "common/segmented_lru.h"
#include "common/stats.h"
#include "common/status.h"
#include "geom/point.h"
#include "rtree/leaf_codec.h"
#include "rtree/rtree.h"

namespace uvd {
namespace rtree {

/// How stage 1 traverses the R-tree (core/build_pipeline.h wires it
/// through CrObjectFinder). Both modes produce bitwise-identical candidate
/// sets, serialized indexes and PNN digests; kPerAnchor restarts every
/// query from the root and is the determinism oracle.
enum class TraversalMode {
  kPerAnchor,  ///< Fresh root-to-leaf traversal per anchor (oracle).
  kShared,     ///< Tiled TraversalSession reuse (default).
};

const char* TraversalModeName(TraversalMode m);

struct TraversalSessionOptions {
  /// Decoded leaves the memo retains (segmented LRU). The default covers
  /// every leaf of a 25K-object tree; smaller values trade decode repeats
  /// for memory (one leaf ~ fanout * sizeof(LeafEntry) ~ 5.6 KB).
  size_t leaf_memo_capacity = 256;
};

/// \brief Reusable k-NN / range traversal state over one immutable RTree,
/// which must have an empty tail() (checked at construction).
class TraversalSession {
 public:
  explicit TraversalSession(const RTree& tree,
                            const TraversalSessionOptions& options = {},
                            Stats* stats = nullptr);

  /// The k entries with smallest (dist_min, id) — byte-identical to
  /// RTree::KNearestByDistMin for every session state. `out` is cleared.
  void KNearest(const geom::Point& q, int k, std::vector<LeafEntry>* out);

  /// Entries whose centers lie within Cir(center, radius) — the same SET
  /// RTree::CentersInRange returns (element order may differ; Algorithm 2
  /// sorts the ids it keeps, so the order is never observable downstream).
  /// `out` is cleared.
  void CentersInRange(const geom::Point& center, double radius,
                      std::vector<LeafEntry>* out);

  /// Drops the entry pool and forgets the previous-anchor bound. The leaf
  /// memo survives (capacity-bounded either way).
  void Reset();

  /// The first leaf-read failure, sticky; OK when none. Once it is set,
  /// query results may be incomplete.
  const Status& status() const { return scratch_.status; }

  size_t memo_hits() const { return memo_hits_; }
  size_t memo_misses() const { return memo_misses_; }
  size_t memo_size() const { return memo_.size(); }
  /// Entries currently materialized in the pool (0 when invalid).
  size_t pool_size() const { return pool_radius_ < 0.0 ? 0 : pool_.size(); }
  /// Times the pool was (re)built from the tree.
  size_t pool_rebuilds() const { return pool_rebuilds_; }
  /// Queries answered by a pool scan (vs RTree::KNearestByDistMin).
  size_t pool_serves() const { return pool_serves_; }

 private:
  /// Decoded entries of `leaf`, via the memo; nullptr when the read fails
  /// (recorded in scratch_.status). The pointer is valid until the next
  /// GetLeaf call (which may evict it).
  const std::vector<LeafEntry>* GetLeaf(uint32_t leaf);

  /// True when every entry a query of `needed` radius around `q` can
  /// return provably lies in the pool (1-Lipschitz transfer bound, with a
  /// relative guard band absorbing floating-point triangle-inequality
  /// slop — conservative: may say no near the boundary, never wrongly yes).
  bool PoolCovers(const geom::Point& q, double needed) const;

  /// Re-centers the pool on `center` and re-collects every entry with
  /// dist_min(center) <= radius by a pruned walk from the root.
  void RebuildPool(const geom::Point& center, double radius);

  /// Answers KNearest by flat pool scan: the k canonically smallest
  /// (dist_min, id) among pool entries. Pre-condition: PoolCovers(q, bound)
  /// with bound >= the true k-th distance. Returns false (out untouched
  /// beyond clear) if the pool unexpectedly holds fewer than k candidates;
  /// the caller falls back to RTree::KNearestByDistMin.
  bool ServeFromPool(const geom::Point& q, int k, double bound,
                     std::vector<LeafEntry>* out);

  const RTree& tree_;
  Stats* stats_;

  // Buffers of the pool-miss k-NN and the rebuild walk; its status is the
  // session's sticky status().
  TraversalScratch scratch_;

  // Entry pool (see the header comment). pool_radius_ < 0 marks it
  // invalid; last_window_ remembers the largest radius recently requested
  // so a rebuild triggered by the (smaller) k-NN bound already sizes the
  // ball for the range query that follows at the same anchor.
  std::vector<LeafEntry> pool_;
  geom::Point pool_center_;
  double pool_radius_ = -1.0;
  double last_window_ = 0.0;
  struct PoolCandidate {
    double key;
    int32_t id;
    uint32_t pos;  // index into pool_
  };
  std::vector<PoolCandidate> pool_cand_;  // reused across ServeFromPool calls
  size_t pool_rebuilds_ = 0;
  size_t pool_serves_ = 0;

  // Previous-anchor bound (valid only when the last KNearest returned a
  // full k entries).
  geom::Point prev_q_;
  double prev_kth_ = 0.0;
  int prev_k_ = 0;
  bool prev_valid_ = false;

  SegmentedLru<uint32_t, std::vector<LeafEntry>> memo_;
  size_t memo_hits_ = 0;
  size_t memo_misses_ = 0;
};

}  // namespace rtree
}  // namespace uvd

#endif  // UVD_RTREE_TRAVERSAL_SESSION_H_
