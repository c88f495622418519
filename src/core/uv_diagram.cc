#include "core/uv_diagram.h"

namespace uvd {
namespace core {

Status ValidateBuildInput(const std::vector<uncertain::UncertainObject>& objects,
                          const geom::Box& domain) {
  if (objects.empty()) {
    return Status::InvalidArgument("cannot build a UV-diagram over zero objects");
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].id() != static_cast<int>(i)) {
      return Status::InvalidArgument("objects must have ids 0..n-1 in order");
    }
    if (!domain.Contains(objects[i].center())) {
      return Status::InvalidArgument("object center outside the domain");
    }
  }
  return Status::OK();
}

BuildPipelineOptions PipelineOptionsFor(const UVDiagramOptions& options) {
  BuildPipelineOptions pipeline;
  pipeline.method = options.method;
  pipeline.cr = options.cr;
  pipeline.build_threads = options.build_threads;
  pipeline.stage2_max_depth = options.stage2_max_depth;
  return pipeline;
}

UVDiagram::UVDiagram(const Options& options, Stats* stats)
    : options_(options), stats_(stats) {
  if (stats_ == nullptr) {
    owned_stats_ = std::make_unique<Stats>();
    stats_ = owned_stats_.get();
  }
}

Result<UVDiagram> UVDiagram::Build(std::vector<uncertain::UncertainObject> objects,
                                   const geom::Box& domain, const Options& options,
                                   Stats* stats) {
  UVD_RETURN_NOT_OK(ValidateBuildInput(objects, domain));

  UVDiagram d(options, stats);
  d.objects_ = std::move(objects);
  IndexUnit& u = d.unit_;
  u.box = domain;
  UVD_RETURN_NOT_OK(u.Create(options.storage_path, options.page_size,
                             options.buffer_pool_pages, d.stats_));
  UVD_RETURN_NOT_OK(u.store->BulkLoad(d.objects_, &u.ptrs));

  UVD_ASSIGN_OR_RETURN(
      rtree::RTree tree,
      rtree::RTree::BulkLoad(d.objects_, u.ptrs, u.pm.get(), options.rtree, d.stats_));
  d.rtree_ = std::make_unique<rtree::RTree>(std::move(tree));

  u.index = std::make_unique<UVIndex>(domain, u.pm.get(), options.index, d.stats_);
  UVD_RETURN_NOT_OK(RunBuildPipeline(d.objects_, u.ptrs, *d.rtree_, domain,
                                     PipelineOptionsFor(options), u.index.get(),
                                     &d.build_stats_, d.stats_));
  return d;
}

Status UVDiagram::Checkpoint() { return unit_.Checkpoint({}); }

Status UVDiagram::CloseStorage() {
  if (!persistent()) return Status::OK();
  UVD_RETURN_NOT_OK(Checkpoint());
  return unit_.fpm->Close();
}

Result<UVDiagram> UVDiagram::Open(const std::string& path, const Options& options,
                                  Stats* stats) {
  UVDiagram d(options, stats);
  d.options_.storage_path = path;
  std::vector<uint8_t> header;
  UVD_RETURN_NOT_OK(
      d.unit_.Open(path, options.buffer_pool_pages, d.stats_, &header, &d.objects_));
  if (!header.empty()) {
    return Status::InvalidArgument(
        "paged file is a shard of a sharded UV-diagram (use ShardedUVDiagram::Open)");
  }
  d.options_.page_size = d.unit_.pm->page_size();

  // The R-tree is not persisted (it is derivable): leave it unbuilt and
  // let the first R-tree-path caller reconstruct it from the reloaded
  // objects. UV-index serving needs none of it.
  {
    MutexLock lock(*d.rtree_mu_);
    d.rtree_stale_ = true;
  }
  return d;
}

Status UVDiagram::RefreshRtreeIfStale(bool fold_tail) const {
  MutexLock lock(*rtree_mu_);
  if (!rtree_stale_ && (!fold_tail || rtree_->tail().empty())) return Status::OK();
  auto pm = std::make_unique<storage::PageManager>(options_.page_size, stats_);
  UVD_ASSIGN_OR_RETURN(
      rtree::RTree tree,
      rtree::RTree::BulkLoad(objects_, unit_.ptrs, pm.get(), options_.rtree, stats_));
  if (rtree_ == nullptr) {
    // Reopened diagrams start without an R-tree (it is derivable, not
    // persisted); materialize it on first use.
    rtree_ = std::make_unique<rtree::RTree>(std::move(tree));
  } else {
    *rtree_ = std::move(tree);
  }
  rtree_pm_ = std::move(pm);
  rtree_stale_ = false;
  return Status::OK();
}

Status UVDiagram::InsertObject(uncertain::UncertainObject object) {
  if (object.id() != static_cast<int>(objects_.size())) {
    return Status::InvalidArgument("new object id must equal objects().size()");
  }
  if (!unit_.box.Contains(object.center())) {
    return Status::InvalidArgument("object center outside the domain");
  }
  // Persist the record and register the object.
  auto ptr = unit_.store->Append(object);
  if (!ptr.ok()) return ptr.status();
  objects_.push_back(std::move(object));
  unit_.ptrs.push_back(ptr.value());
  {
    // Up to one leaf page's worth of inserts rides in the tree's tail;
    // the insert after that rebuilds the tree, folding the tail.
    MutexLock lock(*rtree_mu_);
    if (!rtree_stale_ &&
        rtree_->tail().size() < static_cast<size_t>(options_.rtree.fanout)) {
      rtree_->Append({objects_.back().id(), objects_.back().Mbc(), unit_.ptrs.back()});
    } else {
      rtree_stale_ = true;
    }
  }

  // Derive the new object's cr-objects against the full population (the
  // R-tree and its tail cover every earlier insert).
  const auto index_new_object = [&]() -> Status {
    UVD_RETURN_NOT_OK(RefreshRtreeIfStale(/*fold_tail=*/false));
    const CrObjectFinder finder(objects_, *rtree_, unit_.box, options_.cr, stats_);
    CrFinderWorkspace ws;
    const CrResult cr = finder.Find(objects_.size() - 1, &ws);
    UVD_RETURN_NOT_OK(ws.status());
    std::vector<geom::Circle> cr_regions;
    cr_regions.reserve(cr.cr_objects.size());
    for (int id : cr.cr_objects) {
      cr_regions.push_back(objects_[static_cast<size_t>(id)].region());
    }
    return unit_.index->InsertObjectLive(objects_.back().region(), objects_.back().id(),
                                         unit_.ptrs.back(), std::move(cr_regions));
  };
  const Status st = index_new_object();
  if (!st.ok()) {
    // Roll back: the index is as it was (InsertObjectLive undoes itself),
    // so forget the record and rebuild the R-tree (which may hold it in
    // its tail) without it on next use.
    unit_.store->DropLastRecord();
    objects_.pop_back();
    unit_.ptrs.pop_back();
    MutexLock lock(*rtree_mu_);
    rtree_stale_ = true;
  }
  return st;
}

Result<std::vector<uncertain::PnnAnswer>> UVDiagram::QueryPnn(const geom::Point& q) const {
  return EvaluatePnnWithUvIndex(*unit_.index, *unit_.store, q, options_.qualification, stats_);
}

Result<std::vector<uncertain::PnnAnswer>> UVDiagram::QueryPnnWithRtree(
    const geom::Point& q) const {
  UVD_RETURN_NOT_OK(RefreshRtreeIfStale(/*fold_tail=*/true));
  return rtree::EvaluatePnnWithRtree(*rtree_, *unit_.store, q, options_.qualification,
                                     stats_);
}

Result<std::vector<int>> UVDiagram::AnswerObjectIds(const geom::Point& q) const {
  return RetrievePnnAnswerIds(*unit_.index, q, stats_);
}

std::vector<UvPartition> UVDiagram::QueryUvPartitions(const geom::Box& range) const {
  return RetrieveUvPartitions(*unit_.index, range, stats_);
}

Result<UvCellSummary> UVDiagram::QueryUvCellSummary(int object_id) const {
  return RetrieveUvCellSummary(*unit_.index, object_id, /*use_offline_lists=*/true, stats_);
}

}  // namespace core
}  // namespace uvd
