// The UV-index (paper Sec. V): an adaptive quad-tree over UV-cells. Leaf
// nodes carry page lists of <ID, MBC, ptr> tuples on simulated disk; the
// non-leaf level is bounded by M nodes kept in memory. Insertion follows
// Algorithm 3 (InsertObj), split decisions Algorithm 4 (CheckSplit, split
// fraction theta vs threshold T_theta), and cell/region overlap tests
// Algorithm 5 (CheckOverlap with the 4-point corner test against the
// outside regions of the object's cr-objects).
#ifndef UVD_CORE_UV_INDEX_H_
#define UVD_CORE_UV_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/uv_edge.h"
#include "geom/batch/kernels.h"
#include "geom/box.h"
#include "geom/circle.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"

namespace uvd {
namespace core {

/// Construction parameters with the paper's defaults (Sec. VI-A).
struct UVIndexOptions {
  int max_nonleaf = 4000;        ///< M: in-memory non-leaf node budget.
  double split_threshold = 1.0;  ///< T_theta in [0, 1]; larger = more splits.
  int leaf_fanout = 100;         ///< Tuples per 4 KB leaf page.
  /// Accept insertions whose center lies outside the domain. Sharded
  /// serving registers an object with every sub-domain its UV-cell
  /// overlaps, so border objects belong to indexes that do not contain
  /// their centers; Algorithm 3's root-level CheckOverlap remains the real
  /// placement gate. Off by default: for a whole-domain index an external
  /// center is a caller bug worth rejecting.
  bool accept_border_objects = false;
  /// CheckOverlap (Algorithm 5) implementation: kBatch evaluates the
  /// 4-point test over SoA blocks of cr-objects (geom/batch/kernels.h);
  /// kScalar is the original per-edge loop and the determinism oracle. The
  /// tree, pages and serialized image are bitwise-identical either way;
  /// only the kFourPointTests / kHyperbolaTests scan-length tickers differ
  /// (block early exits round up, the pruner-hint scan order changes).
  /// Construction-time only: not serialized, irrelevant after Finalize().
  geom::KernelMode kernel_mode = geom::KernelMode::kBatch;
};

/// \brief Adaptive grid index over UV-cells.
///
/// Usage: construct, InsertObject() once per object (with its cr-objects
/// from Algorithm 2 — or its exact r-objects for the ICR method), then
/// Finalize() to write leaf pages; afterwards the index is queryable.
class UVIndex {
 public:
  /// Quad-tree node. Children exist iff !is_leaf; `num_pages` models the
  /// allocated page chain during construction (pages are materialized at
  /// Finalize()).
  struct Node {
    geom::Box region;
    bool is_leaf = true;
    std::array<uint32_t, 4> children{};      // valid iff !is_leaf
    std::vector<uint32_t> member_slots;      // construction-time tuple refs
    /// Per-resident CheckOverlap pruner hint, parallel to member_slots
    /// (member_hints[i] belongs to member_slots[i]). Hints live with the
    /// leaf — not the member — so a leaf's hint evolution is a pure
    /// function of its own insertion sequence: subtrees built in parallel
    /// replay the serial scan lengths (and tickers) exactly, and a member
    /// resident in several leaves keeps an independent hint in each. On a
    /// split each resident's current hint is forked into every child it
    /// joins. Construction-time only; never affects decisions (see
    /// CheckOverlapWith).
    std::vector<uint32_t> member_hints;
    size_t num_pages = 1;                    // allocated page count
    std::vector<storage::PageId> pages;      // materialized at Finalize()
    /// Memoized CheckSplit redistribution of the residents over the four
    /// quarters, as POSITIONS into member_slots (stable: the list is
    /// append-only between splits), maintained incrementally so repeated
    /// OVERFLOW decisions stay O(|C_i|) instead of re-testing the whole
    /// resident list. Positions (not slots) let the split fork each
    /// resident's member_hints entry alongside it.
    std::array<std::vector<uint32_t>, 4> split_cache;
    bool split_cache_valid = false;
  };

  UVIndex(const geom::Box& domain, storage::PageManager* pm,
          const UVIndexOptions& options = {}, Stats* stats = nullptr);

  /// Algorithm 3: inserts one object. `cr_regions` are the uncertainty
  /// regions of its cr-objects (C_i), used by CheckOverlap.
  Status InsertObject(const geom::Circle& region, int id, uncertain::ObjectPtr ptr,
                      std::vector<geom::Circle> cr_regions);

  /// One object of a bulk insertion: the exact argument tuple InsertObject
  /// takes, materialized so stage 2 can be replayed out of order.
  struct BulkInsertItem {
    geom::Circle region;
    int id = 0;
    uncertain::ObjectPtr ptr = 0;
    std::vector<geom::Circle> cr_regions;
  };

  /// Domain-partitioned parallel stage 2 (see InsertObjectsPartitioned).
  struct PartitionedInsertOptions {
    /// Subtree insertion workers drawn from the caller's pool. 1 (or a
    /// null pool) degrades to the plain serial insertion loop.
    int threads = 1;
    /// Partition frontier depth cap below the root (clamped to [1, 3]):
    /// up to 4^max_depth insertion domains.
    int max_depth = 2;
  };

  /// Diagnostics from one partitioned insertion.
  struct PartitionedInsertReport {
    size_t total_objects = 0;
    size_t prefix_objects = 0;   ///< Inserted serially before the fan-out.
    int subtrees = 0;            ///< Parallel insertion domains (frontier size).
    size_t parallel_splits = 0;  ///< Split events replayed by the stitch.
    bool serial_fallback = false;  ///< max_nonleaf bound: rebuilt serially.
  };

  /// Inserts `items` (in order) with stage 2 fanned out per quad-tree
  /// subtree, producing a tree — and, after Finalize, a serialized index —
  /// BITWISE-IDENTICAL to calling InsertObject(items[0]), ...,
  /// InsertObject(items[n-1]) on a fresh index.
  ///
  /// With one worker (threads <= 1 or a null pool) the members are made
  /// first and then inserted by that loop, the whole build being the
  /// serial prefix of step 1.
  ///
  /// How the serial bytes are reproduced with more workers (the
  /// determinism contract):
  ///   1. Serial prefix: items are inserted one at a time by the exact
  ///      serial algorithm until the root has split and either the
  ///      frontier holds min(4^max_depth, max(4, 2 * threads)) subtrees or
  ///      16 * leaf_fanout items are in. Every node above the frontier has
  ///      split by definition (the scaffold), so no ancestor can split
  ///      again and the frontier subtrees evolve independently.
  ///   2. Route: each remaining item is tested against the scaffold with
  ///      the same CheckOverlap descent the serial build would run, and
  ///      assigned to every frontier subtree it reaches (the same
  ///      replication rule shard borders use, one level down).
  ///   3. Per-subtree build: each subtree inserts its items in order into
  ///      a private node arena (its own id namespace), logging every
  ///      split event keyed by the item position that triggered it. The
  ///      global max_nonleaf budget is optimistically ignored here.
  ///   4. Canonical stitch: the per-subtree event logs are merged by
  ///      (item position, subtree rank in root-DFS order) — exactly the
  ///      order the serial build creates nodes — and the arena nodes are
  ///      renumbered into the main node vector in that order. Page ids
  ///      are then assigned by Finalize in node order as always, so the
  ///      whole serialized image matches the serial build byte for byte.
  ///      If replaying the merged events would exhaust max_nonleaf (the
  ///      one piece of global state splits share), the optimistic result
  ///      is discarded and the build reruns serially — identical bytes,
  ///      no speedup, reported via PartitionedInsertReport.
  ///
  /// Stats: structure, pages, every query answer AND every ticker are
  /// exact — including the scan-length tickers kHyperbolaTests /
  /// kFourPointTests. The pruner hints that set scan lengths are
  /// leaf-resident (Node::member_hints) and descent gates use a fresh
  /// hint per check, so a leaf's hint evolution depends only on its own
  /// insertion sequence, which the routing + per-subtree replay preserves
  /// verbatim. (The KERNEL axis still changes those two tickers — kBatch
  /// evaluates blockwise — see UVIndexOptions::kernel_mode.)
  ///
  /// Requires a fresh index (no prior insertions). Items need not have
  /// contiguous ids (shard replicas keep global ids); order is what
  /// matters. `pool` may be shared; only `options.threads` workers run at
  /// once, the calling thread among them. Each phase runs under a trace
  /// span: build/stage2_{member,prefix,route,subtree,stitch}.
  Status InsertObjectsPartitioned(std::vector<BulkInsertItem> items,
                                  ThreadPool* pool,
                                  const PartitionedInsertOptions& options,
                                  PartitionedInsertReport* report = nullptr);

  /// Writes every leaf's tuple list to disk pages. Required before queries;
  /// drops the cr-object construction cache.
  Status Finalize();

  /// Finalize with the leaf-page encoding fanned out over `threads`
  /// workers from `pool`. Page ids are pre-assigned in node order from one
  /// contiguous PageManager run (storage::PageManager::AllocateRun), so
  /// the page layout — ids and bytes — is identical to the serial
  /// Finalize() for every thread count. Falls back to the serial path when
  /// `pool` is null or `threads` <= 1.
  Status FinalizeWith(ThreadPool* pool, int threads);

  /// Incremental insertion into a finalized index (paper Sec. VII future
  /// work). The grid structure is frozen — no splits — so the object is
  /// appended to the page chain of every leaf its cell may overlap.
  /// Correctness is preserved: a new object only shrinks other objects'
  /// true cells, so existing leaf tuples remain conservative supersets
  /// (Lemma 4 intact), and the new object's own tuples are placed by the
  /// same CheckOverlap test used at construction. Leaf chains lengthen
  /// over time; rebuild when query I/O degrades. A failed call leaves the
  /// index as it was: overflow pages are allocated before any node
  /// changes, and a failed leaf write undoes the leaves already written.
  Status InsertObjectLive(const geom::Circle& region, int id,
                          uncertain::ObjectPtr ptr,
                          std::vector<geom::Circle> cr_regions);

  /// PNN index phase: locate the leaf containing q, read its page chain and
  /// return the stored tuples (a superset of the answer objects; the caller
  /// applies the d_minmax verification of [14]). Equivalent to
  /// LocateLeafChecked + ReadLeafEntries; the split form exists so the
  /// query engine's cell cache can memoize the page-list phase.
  Result<std::vector<rtree::LeafEntry>> RetrieveCandidates(const geom::Point& q) const;

  /// Point-location phase with the validation RetrieveCandidates performs
  /// (finalized index, q inside the domain). The domain is owned with
  /// explicit [min, max) semantics per axis — interior boundaries belong to
  /// the upper/right side — except the domain's own max edge, which stays
  /// closed so boundary probes are answered rather than dropped. See
  /// OwnsPoint for the exclusive-ownership predicate used by shard routing.
  Result<uint32_t> LocateLeafChecked(const geom::Point& q) const;

  /// True iff this index owns q exclusively under the half-open [min, max)
  /// tiling convention: adjacent indexes covering a partitioned domain each
  /// own a cut-line point exactly once (the upper/right neighbor). Points
  /// on the global domain's max edge are owned by no index under this test;
  /// routers clamp them to the max-edge shard (whose closed max edge
  /// accepts them, see LocateLeafChecked).
  bool OwnsPoint(const geom::Point& q) const;

  /// Page-list phase: reads and decodes the leaf's page chain. Leaf I/O is
  /// billed to the index's Stats; safe for concurrent callers.
  Result<std::vector<rtree::LeafEntry>> ReadLeafEntries(uint32_t leaf) const;

  /// Index of the leaf node whose region contains q.
  uint32_t LocateLeaf(const geom::Point& q) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  uint32_t root() const { return 0; }
  const geom::Box& domain() const { return domain_; }
  bool finalized() const { return finalized_; }

  int num_nonleaf() const { return nonleaf_count_; }
  size_t num_leaves() const;
  size_t total_leaf_pages() const;
  int height() const;

  /// Number of objects associated with the leaf (the paper's offline
  /// per-leaf counter for pattern queries, Sec. V-C).
  size_t LeafObjectCount(uint32_t node_index) const;

  /// Ids of the objects associated with the leaf (from the in-memory
  /// construction metadata; no I/O).
  std::vector<int> LeafObjectIds(uint32_t node_index) const;

  /// The paper's non-leaf memory model: 16 bytes per non-leaf node.
  size_t PaperMemoryBytes() const { return 16u * static_cast<size_t>(nonleaf_count_); }

  /// Serializes the finalized index's structure (domain, options, nodes,
  /// leaf page ids) into a byte stream; see uv_index_io.h for the paged
  /// wrapper.
  Status SerializeStructure(std::vector<uint8_t>* out) const;

  /// Rebuilds a finalized index from SerializeStructure output. Re-reads
  /// the (shared) leaf tuple pages to restore per-leaf object lists.
  static Result<UVIndex> DeserializeStructure(const std::vector<uint8_t>& data,
                                              storage::PageManager* pm,
                                              Stats* stats);

 private:
  struct Member {
    geom::Circle region;
    int id;
    uncertain::ObjectPtr ptr;
    /// C_i: every CheckOverlap (Algorithm 5) scans their outside regions.
    /// Dropped at Finalize().
    /// (Pruner hints deliberately do NOT live here: a member-resident memo
    /// threads scan state across leaves in insertion-time order, which
    /// parallel subtree builds cannot replay. They live in
    /// Node::member_hints instead.)
    std::vector<geom::Circle> cr_regions;
    /// SoA mirror of cr_regions for the batch 4-point kernel; filled by
    /// MakeMember iff options_.kernel_mode == kBatch.
    geom::batch::CircleSoA cr_soa;
  };

  enum class SplitDecision { kNormal, kOverflow, kSplit };

  /// One leaf split, logged by partitioned subtree builds so the stitch
  /// can replay node creation in serial order. `order_key` is the position
  /// (not id) of the item whose insertion triggered the split;
  /// `first_child` is the arena-local index of quarter 0 (quarters occupy
  /// four consecutive arena slots).
  struct SplitEvent {
    int order_key = 0;
    uint32_t first_child = 0;
  };

  /// The mutable state one insertion domain operates on. The serial path
  /// binds it to the index's own members (MainArena); partitioned subtree
  /// builds bind private node vectors, split-event logs and Stats shards
  /// so concurrent domains share nothing but the read-only member records
  /// (all pruner-hint state lives inside the arena's nodes —
  /// Node::member_hints).
  struct BuildArena {
    std::vector<Node>* nodes = nullptr;
    int* nonleaf_count = nullptr;
    /// False during optimistic subtree builds: the global max_nonleaf
    /// budget is checked post hoc by the stitch's event replay instead.
    bool enforce_budget = true;
    std::vector<SplitEvent>* events = nullptr;  // null: no logging
    Stats* stats = nullptr;
    int order_key = 0;  // stamps SplitEvents; item position being inserted
  };

  BuildArena MainArena();

  /// Algorithm 5 core: does the UV-cell represented by the member's
  /// cr-objects overlap `region`? Conservative: may answer true for a
  /// disjoint cell (extra candidates filtered at query time), never false
  /// for an overlapping one (Lemma 4). `hint` is the scan-start memo (the
  /// cr-object that pruned last usually prunes again); it is read, and
  /// overwritten on a "no overlap" answer. The answer never depends on
  /// it, only the scan length does — callers choose the hint discipline:
  /// descent gates pass a fresh 0 (checks are independent), split-cache
  /// maintenance threads the per-leaf residency hint
  /// (Node::member_hints).
  bool CheckOverlapWith(const Member& m, const geom::Box& region, Stats* stats,
                        size_t* hint) const;

  /// CheckOverlapWith against the index's own Stats with a fresh hint —
  /// the one-shot form used outside arena insertion (live inserts).
  bool CheckOverlap(const Member& m, const geom::Box& region) const;

  /// CheckOverlapWith for one member slot, billed to the arena's Stats.
  bool CheckOverlapArena(const BuildArena& a, uint32_t member_slot,
                         const geom::Box& region, size_t* hint) const;

  /// Algorithm 4. `incoming_hint` is the incoming member's evolving hint
  /// for this leaf (starts 0; the caller threads it on into
  /// AddToSplitCache or stores it as the residency hint). On kSplit,
  /// child_lists holds the redistributed member slots (incoming one
  /// included) and child_hints their forked residency hints, parallel.
  SplitDecision CheckSplit(const BuildArena& a, uint32_t node_idx,
                           uint32_t incoming_slot, size_t* incoming_hint,
                           std::array<std::vector<uint32_t>, 4>* child_lists,
                           std::array<std::vector<uint32_t>, 4>* child_hints);

  /// Builds the construction-time member record: the cr-objects, plus
  /// their SoA mirror under kBatch. A pure function of its arguments.
  Member MakeMember(const geom::Circle& region, int id, uncertain::ObjectPtr ptr,
                    std::vector<geom::Circle> cr_regions) const;

  /// Rebuilds the node's split cache from member_slots if invalid,
  /// threading each resident's member_hints entry through its four
  /// quadrant checks.
  void EnsureSplitCache(const BuildArena& a, uint32_t node_idx);

  /// Appends the quarter distribution of the member at position `pos` of
  /// member_slots to a valid split cache, threading `hint` through the
  /// four quadrant checks.
  void AddToSplitCache(const BuildArena& a, uint32_t node_idx, uint32_t pos,
                       size_t* hint);

  void InsertInto(const BuildArena& a, uint32_t node_idx, uint32_t member_slot);

  /// Partition frontier for the parallel phase: the maximal nodes at depth
  /// <= max_depth whose proper ancestors are all non-leaf, in root-DFS
  /// (child 0..3) order — the order the serial descent visits them, which
  /// is the tie-break rank of the stitch's event merge. {root} while the
  /// root is still a leaf.
  std::vector<uint32_t> ComputeFrontier(int max_depth) const;

  size_t LeafCapacity(const Node& node) const {
    return node.num_pages * static_cast<size_t>(options_.leaf_fanout);
  }

  geom::Box domain_;
  storage::PageManager* pm_;
  UVIndexOptions options_;
  Stats* stats_;
  std::vector<Node> nodes_;
  std::vector<Member> members_;
  int nonleaf_count_ = 0;
  bool finalized_ = false;
};

/// Conservative cell-vs-box overlap test (Algorithm 5, exported): true
/// unless some cr-object's outside region provably contains `box`, in which
/// case the UV-cell of the object with uncertainty region `region` cannot
/// intersect it. Sharded builds use this to decide which sub-domains an
/// object must be registered with — a "no" is exact (the cell misses the
/// box), a "yes" may be a false positive (harmless: the object is filtered
/// at query time like any other conservative candidate).
bool UvCellMayOverlap(const geom::Circle& region,
                      const std::vector<geom::Circle>& cr_regions,
                      const geom::Box& box, Stats* stats = nullptr);

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_UV_INDEX_H_
