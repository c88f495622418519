// Public facade of the library: owns the dataset, the R-tree (pruning
// driver and PNN baseline) and one core::IndexUnit — the disk, object store
// and UV-index — and exposes the paper's queries.
//
// Quickstart:
//   auto diagram = core::UVDiagram::Build(objects, domain).ValueOrDie();
//   auto answers = diagram.QueryPnn({x, y});
//   for (const auto& a : answers) use(a.id, a.probability);
#ifndef UVD_CORE_UV_DIAGRAM_H_
#define UVD_CORE_UV_DIAGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "core/build_pipeline.h"
#include "core/index_unit.h"
#include "core/pattern_queries.h"
#include "core/pnn.h"
#include "core/uv_index.h"
#include "geom/box.h"
#include "rtree/pnn_baseline.h"
#include "rtree/rtree.h"
#include "storage/file_page_manager.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {

/// Build configuration for a UVDiagram (paper defaults throughout).
struct UVDiagramOptions {
  BuildMethod method = BuildMethod::kIC;
  CrFinderOptions cr;
  UVIndexOptions index;
  rtree::RTreeOptions rtree;
  uncertain::QualificationOptions qualification;
  size_t page_size = storage::kDefaultPageSize;
  /// Construction worker count (see core/build_pipeline.h). <= 0: hardware
  /// concurrency (the default); 1: no pool, the build runs on the calling
  /// thread. The resulting index is byte-identical for every setting.
  int build_threads = 0;
  /// Partition frontier depth of the parallel stage 2 (see
  /// core/build_pipeline.h); every depth serializes to identical bytes.
  int stage2_max_depth = 2;
  /// Persistent storage. Empty (the default): pages live in the in-RAM
  /// simulated disk and the diagram dies with the process. Non-empty: the
  /// whole stack — object records, R-tree leaves, UV-index pages — lands
  /// in a checksummed paged file at this path; Checkpoint() makes the
  /// built index durable and Open() serves it cold in a later process
  /// (docs/STORAGE.md).
  std::string storage_path;
  /// Buffer pool capacity in pages for the file-backed store (ignored
  /// without storage_path). 0 disables the pool: every read hits the file.
  size_t buffer_pool_pages = 0;
};

/// The stage-1/stage-2 pipeline configuration of a build with `options`:
/// method, cr, build_threads and stage2_max_depth. UVDiagram::Build and
/// ShardedUVDiagram::Build both derive their pipeline from it.
BuildPipelineOptions PipelineOptionsFor(const UVDiagramOptions& options);

/// The input contract of every Build: at least one object, ids 0..n-1 in
/// order, every center inside `domain`. InvalidArgument otherwise.
Status ValidateBuildInput(const std::vector<uncertain::UncertainObject>& objects,
                          const geom::Box& domain);

/// \brief An indexed UV-diagram over a set of uncertain objects.
class UVDiagram {
 public:
  using Options = UVDiagramOptions;

  /// Builds everything: object store, R-tree, UV-index. Objects must have
  /// ids 0..n-1 in order and centers inside `domain`. If `stats` is null an
  /// internal Stats is used.
  static Result<UVDiagram> Build(std::vector<uncertain::UncertainObject> objects,
                                 const geom::Box& domain, const Options& options = {},
                                 Stats* stats = nullptr);

  /// Reopens a diagram checkpointed at `path` and serves it cold: objects
  /// and store directory come back from the file's manifest, the UV-index
  /// is deserialized, and page reads flow through the (optional) buffer
  /// pool. `options.page_size` is ignored — the file's metapage rules.
  /// The R-tree is NOT rebuilt eagerly; the first R-tree-path call
  /// (QueryPnnWithRtree / rtree()) or insert reconstructs it in RAM from
  /// the reloaded objects. Failure codes are the storage layer's typed
  /// ones: a damaged file yields Corruption (etc.), never a silently wrong
  /// diagram; a shard file of a ShardedUVDiagram yields InvalidArgument.
  static Result<UVDiagram> Open(const std::string& path,
                                const Options& options = {},
                                Stats* stats = nullptr);

  /// Durability point for a file-backed diagram (InvalidArgument without
  /// storage_path): IndexUnit::Checkpoint with an empty header. Open()
  /// recovers exactly this state.
  Status Checkpoint();

  /// Checkpoint + close the backing file. The diagram must not be used
  /// afterwards; reopen with Open(). No-op for in-RAM diagrams.
  Status CloseStorage();

  /// True when this diagram is backed by a paged file.
  bool persistent() const { return unit_.fpm != nullptr; }
  /// The file-backed manager, or nullptr for in-RAM diagrams (metrics
  /// registration, crash harnesses).
  storage::FilePageManager* file_page_manager() { return unit_.fpm; }

  /// Incremental insertion (paper Sec. VII future work): derives the new
  /// object's cr-objects against the current population and appends it to
  /// the frozen grid (UVIndex::InsertObjectLive). The object id must be
  /// objects().size(). The new entry joins the R-tree's in-RAM tail; once
  /// the tail holds a leaf page's worth (options().rtree.fanout), the next
  /// insert rebuilds the tree in RAM over all objects instead. Suitable
  /// for modest insert rates; rebuild the diagram when leaf chains
  /// degrade. A failed call returns its Status and leaves the diagram
  /// serving what it served before, so the same object can be inserted
  /// again.
  Status InsertObject(uncertain::UncertainObject object);

  /// PNN through the UV-index (paper Sec. V-A). Errors (I/O failures,
  /// query outside the domain) propagate as Status.
  Result<std::vector<uncertain::PnnAnswer>> QueryPnn(const geom::Point& q) const;

  /// PNN through the R-tree baseline of [14] (the paper's comparator).
  Result<std::vector<uncertain::PnnAnswer>> QueryPnnWithRtree(const geom::Point& q) const;

  /// Answer-object ids only (no probability computation).
  Result<std::vector<int>> AnswerObjectIds(const geom::Point& q) const;

  /// Pattern queries (paper Sec. V-C).
  std::vector<UvPartition> QueryUvPartitions(const geom::Box& range) const;
  Result<UvCellSummary> QueryUvCellSummary(int object_id) const;

  const std::vector<uncertain::UncertainObject>& objects() const { return objects_; }
  const geom::Box& domain() const { return unit_.box; }
  const UVIndex& index() const { return *unit_.index; }
  /// The R-tree, rebuilt first if stale or if inserts left it a tail, so
  /// the result has an empty tail(); a failed rebuild's error comes back
  /// here.
  Result<const rtree::RTree*> rtree() const {
    UVD_RETURN_NOT_OK(RefreshRtreeIfStale(/*fold_tail=*/true));
    return rtree_.get();
  }
  const uncertain::ObjectStore& store() const { return *unit_.store; }
  const BuildStats& build_stats() const { return build_stats_; }
  Stats& stats() const { return *stats_; }
  const Options& options() const { return options_; }
  /// The diagram's backing store — exposed so observability surfaces can
  /// register its page-read latency histogram.
  const storage::PageManager& page_manager() const { return *unit_.pm; }

 private:
  /// Aligns the kernel sub-options and adopts `stats` (an owned Stats when
  /// null); Build and Open fill in the rest.
  UVDiagram(const Options& options, Stats* stats);

  /// Rebuilds the R-tree over all objects if an insert or a reopen made
  /// it stale, or, with `fold_tail`, if inserts left it a non-empty tail;
  /// a failed rebuild returns its Status and leaves the tree stale. The
  /// rebuild bulk-loads into a fresh in-RAM PageManager (rtree_pm_) that
  /// replaces the previous one, so it writes nothing to the durable store
  /// and frees the old tree's pages. The check and the rebuild run under
  /// rtree_mu_, so concurrent R-tree-path callers (QueryPnnWithRtree,
  /// rtree()) cannot both rebuild or observe a half-built tree. They pass
  /// fold_tail: once one of them has folded, the tree stays clean until
  /// the next InsertObject, which callers must not overlap with queries.
  Status RefreshRtreeIfStale(bool fold_tail) const;

  std::vector<uncertain::UncertainObject> objects_;
  Options options_;
  Stats* stats_ = nullptr;                 // external or owned_stats_.get()
  std::unique_ptr<Stats> owned_stats_;
  /// Storage, object store and UV-index; unit_.box is the domain.
  IndexUnit unit_;
  mutable std::unique_ptr<rtree::RTree> rtree_;
  /// Guards rtree_stale_, rtree_pm_ and the lazy rebuild of *rtree_. A
  /// unique_ptr so UVDiagram stays movable (Result<UVDiagram> returns by
  /// value); the analysis tracks the capability through the dereference
  /// (UVD_GUARDED_BY(*rtree_mu_)). The R-tree VALUE is read lock-free on
  /// query paths — that is safe because every reader first passes the
  /// lock in RefreshRtreeIfStale, and after it no rebuild fires until the
  /// next InsertObject, which callers must not overlap with queries.
  mutable std::unique_ptr<Mutex> rtree_mu_ = std::make_unique<Mutex>();
  mutable bool rtree_stale_ UVD_GUARDED_BY(*rtree_mu_) = false;
  /// Pages of a rebuilt R-tree; null while the tree is the one Build
  /// loaded into unit_.pm.
  mutable std::unique_ptr<storage::PageManager> rtree_pm_ UVD_GUARDED_BY(*rtree_mu_);
  BuildStats build_stats_;
};

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_UV_DIAGRAM_H_
