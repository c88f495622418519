// Packed R*-tree over uncertain objects ([38] in the paper): leaf pages on
// simulated disk (4 KB, fanout 100), non-leaf levels in memory — exactly
// the comparator configuration of the paper's Sec. VI-A. Bulk loading uses
// Sort-Tile-Recursive packing. Queries: best-first k-NN by dist_min (seed
// selection), circular range (I-pruning), plus low-level access used by
// the branch-and-prune PNN baseline (pnn_baseline.h).
#ifndef UVD_RTREE_RTREE_H_
#define UVD_RTREE_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"
#include "rtree/leaf_codec.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace rtree {

/// Construction parameters.
struct RTreeOptions {
  int fanout = 100;  ///< Max children per node and entries per leaf page.
};

/// One best-first frontier element. The comparator is a TOTAL order —
/// (key, kind, index-or-id) — so at equal keys container elements pop
/// before entries and tying entries pop in id order. That makes the k-NN
/// output a pure function of (q, k): the k canonically smallest entries by
/// (dist_min, id), independent of the traversal that produced them —
/// which is what lets rtree::TraversalSession answer from its entry pool
/// and still match a fresh root-to-leaf search bit for bit.
struct KnnHeapItem {
  double key = 0.0;
  uint32_t index = 0;  ///< node or leaf-page index (kind 0 / 1)
  int32_t id = -1;     ///< entry id (kind 2)
  uint8_t kind = 0;    ///< 0 node, 1 leaf page, 2 entry
  LeafEntry entry;     ///< valid when kind == 2

  /// "Worse-than" for a std::greater min-heap on the canonical order.
  bool operator>(const KnnHeapItem& o) const {
    if (key != o.key) return key > o.key;
    if (kind != o.kind) return kind > o.kind;
    if (kind == 2) return id > o.id;
    return index > o.index;
  }
};

/// Caller-owned reusable buffers for the traversal paths, so a hot loop
/// (one k-NN + one range query per anchor in Algorithm 2) stops paying a
/// heap/page-buffer allocation per call.
struct TraversalScratch {
  std::vector<KnnHeapItem> heap;
  std::vector<LeafEntry> page_entries;
  std::vector<uint32_t> stack;
  /// The first leaf-read failure of any call through this scratch, sticky;
  /// OK when none. A call that hits one returns an incomplete result.
  Status status;
};

/// \brief Packed R-tree with disk-resident leaves, plus an in-RAM tail.
///
/// The tail holds entries added by Append after BulkLoad. KNearestByDistMin
/// and CentersInRange scan it beside the packed tree, so their results
/// cover every entry; the low-level accessors (nodes(), leaf_pages(),
/// leaf_mbrs(), ReadLeaf) see the packed tree only, so walkers built on
/// them (TraversalSession, the PNN baseline) require an empty tail. A
/// tree fresh from BulkLoad has one, and builds never append.
///
/// Thread safety: Append is the one mutation and must not overlap any
/// other call. Otherwise the const query paths keep no mutable caches and
/// only touch the in-memory levels, the tail, PageManager::Read (safe for
/// concurrent readers) and atomic Stats tickers. Any number of threads
/// may query one tree concurrently, provided nobody appends to it or
/// writes to the underlying PageManager meanwhile; the build pipeline
/// relies on this.
class RTree {
 public:
  /// In-memory non-leaf node. `children` index nodes() when
  /// `leaf_children` is false and leaf_pages()/leaf_mbrs() otherwise.
  struct Node {
    geom::Box mbr;
    bool leaf_children = false;
    std::vector<uint32_t> children;
  };

  /// Bulk loads the tree (STR packing); `ptrs[i]` is the disk pointer of
  /// `objects[i]` from ObjectStore::BulkLoad.
  static Result<RTree> BulkLoad(const std::vector<uncertain::UncertainObject>& objects,
                                const std::vector<uncertain::ObjectPtr>& ptrs,
                                storage::PageManager* pm,
                                const RTreeOptions& options = {},
                                Stats* stats = nullptr);

  /// Adds one entry to the in-RAM tail; no page is read or written.
  /// Queries see it at once. To fold the tail, bulk-load a new tree over
  /// every entry.
  void Append(const LeafEntry& entry) { tail_.push_back(entry); }

  /// The k objects with smallest dist_min(O, q), best-first. Used by seed
  /// selection (paper Sec. IV-B, k = 300). Output order is canonical:
  /// ascending (dist_min, id) — see KnnHeapItem.
  std::vector<LeafEntry> KNearestByDistMin(const geom::Point& q, int k) const;

  /// Allocation-free k-NN: reuses `scratch`'s heap and page buffer and
  /// appends nothing — `out` is cleared first. Identical output to the
  /// allocating overload. A leaf-read failure stops the query and is
  /// recorded in scratch->status.
  void KNearestByDistMin(const geom::Point& q, int k, TraversalScratch* scratch,
                         std::vector<LeafEntry>* out) const;

  /// Objects whose region centers lie within Cir(center, radius). Used by
  /// I-pruning (paper Lemma 2: radius 2d - r_i).
  std::vector<LeafEntry> CentersInRange(const geom::Point& center,
                                        double radius) const;

  /// Allocation-free range query; `out` is cleared first. Identical output
  /// to the allocating overload. Leaf-read failures as for k-NN.
  void CentersInRange(const geom::Point& center, double radius,
                      TraversalScratch* scratch, std::vector<LeafEntry>* out) const;

  /// Reads one leaf page back into entries; bills one R-tree leaf I/O.
  Status ReadLeaf(storage::PageId page, std::vector<LeafEntry>* out) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  uint32_t root() const { return root_; }
  const std::vector<storage::PageId>& leaf_pages() const { return leaf_pages_; }
  const std::vector<geom::Box>& leaf_mbrs() const { return leaf_mbrs_; }
  /// Entries appended since BulkLoad, in append order.
  const std::vector<LeafEntry>& tail() const { return tail_; }

  /// Packed entries plus the tail.
  size_t num_objects() const { return num_objects_ + tail_.size(); }
  size_t num_leaf_pages() const { return leaf_pages_.size(); }
  int height() const { return height_; }

  /// Bytes held in main memory (non-leaf levels and the tail), for the
  /// paper's memory comparison against the UV-index.
  size_t MemoryBytes() const;

 private:
  RTree() = default;

  /// ReadLeaf into scratch->page_entries under the rtree/decode span; on
  /// failure records the sticky scratch->status and returns false.
  bool ReadLeafInto(storage::PageId page, TraversalScratch* scratch) const;

  storage::PageManager* pm_ = nullptr;
  Stats* stats_ = nullptr;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  std::vector<storage::PageId> leaf_pages_;
  std::vector<geom::Box> leaf_mbrs_;
  size_t num_objects_ = 0;  ///< packed entries
  int height_ = 0;
  std::vector<LeafEntry> tail_;
};

}  // namespace rtree
}  // namespace uvd

#endif  // UVD_RTREE_RTREE_H_
