#include "core/uv_diagram.h"

#include "core/uv_index_io.h"
#include "storage/record.h"

namespace uvd {
namespace core {

namespace {

// Bootstrap blob in the paged file's metapage: points at the manifest
// page chain. The manifest itself (a normal page stream) carries the
// domain, the object-store directory and the saved-index handle.
constexpr uint32_t kDiagramBootstrapMagic = 0x55564442;  // "UVDB"
constexpr uint32_t kDiagramBootstrapVersion = 1;
constexpr uint32_t kDiagramManifestMagic = 0x5556444D;  // "UVDM"
constexpr uint32_t kDiagramManifestVersion = 1;

}  // namespace

Result<UVDiagram> UVDiagram::Build(std::vector<uncertain::UncertainObject> objects,
                                   const geom::Box& domain, const Options& options,
                                   Stats* stats) {
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

  UVDiagram d;
  d.objects_ = std::move(objects);
  d.domain_ = domain;
  d.options_ = options;
  // One knob drives every construction kernel: the sub-option structs the
  // finder and index read are aligned here so callers only set kernel_mode.
  d.options_.cr.kernel_mode = options.kernel_mode;
  d.options_.index.kernel_mode = options.kernel_mode;
  if (stats != nullptr) {
    d.stats_ = stats;
  } else {
    d.owned_stats_ = std::make_unique<Stats>();
    d.stats_ = d.owned_stats_.get();
  }

  if (!options.storage_path.empty()) {
    storage::FilePageManagerOptions file_options;
    file_options.buffer_pool_pages = options.buffer_pool_pages;
    file_options.buffer_pool_protected_fraction =
        options.buffer_pool_protected_fraction;
    auto fpm = storage::FilePageManager::Create(
        options.storage_path, options.page_size, file_options, d.stats_);
    if (!fpm.ok()) return fpm.status();
    d.fpm_ = fpm.value().get();
    d.pm_ = std::move(fpm).value();
  } else {
    d.pm_ = std::make_unique<storage::PageManager>(options.page_size, d.stats_);
  }
  d.store_ = std::make_unique<uncertain::ObjectStore>(d.pm_.get());
  UVD_RETURN_NOT_OK(d.store_->BulkLoad(d.objects_, &d.ptrs_));

  UVD_ASSIGN_OR_RETURN(
      rtree::RTree tree,
      rtree::RTree::BulkLoad(d.objects_, d.ptrs_, d.pm_.get(), options.rtree, d.stats_));
  d.rtree_ = std::make_unique<rtree::RTree>(std::move(tree));

  d.index_ = std::make_unique<UVIndex>(domain, d.pm_.get(), d.options_.index, d.stats_);
  BuildPipelineOptions pipeline;
  pipeline.method = options.method;
  pipeline.cr = d.options_.cr;
  pipeline.build_threads = options.build_threads;
  pipeline.stage2_max_depth = options.stage2_max_depth;
  pipeline.kernel_mode = options.kernel_mode;
  pipeline.traversal_mode = options.traversal_mode;
  pipeline.traversal_tile_size = options.traversal_tile_size;
  pipeline.leaf_memo_capacity = options.leaf_memo_capacity;
  UVD_RETURN_NOT_OK(RunBuildPipeline(d.objects_, d.ptrs_, *d.rtree_, domain, pipeline,
                                     d.index_.get(), &d.build_stats_, d.stats_));
  return d;
}

Status UVDiagram::Checkpoint() {
  if (fpm_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint requires a diagram built with options.storage_path");
  }
  UVD_ASSIGN_OR_RETURN(SavedIndexHandle index_handle,
                       SaveUvIndex(*index_, pm_.get()));

  std::vector<uint8_t> manifest;
  storage::Encoder enc(&manifest);
  enc.PutU32(kDiagramManifestMagic);
  enc.PutU32(kDiagramManifestVersion);
  enc.PutDouble(domain_.lo.x);
  enc.PutDouble(domain_.lo.y);
  enc.PutDouble(domain_.hi.x);
  enc.PutDouble(domain_.hi.y);
  store_->EncodeState(&enc);
  enc.PutU32(index_handle.first_page);
  enc.PutU32(index_handle.page_count);
  UVD_ASSIGN_OR_RETURN(SavedIndexHandle manifest_handle,
                       WriteStreamToPages(manifest, pm_.get()));

  std::vector<uint8_t> bootstrap;
  storage::Encoder boot(&bootstrap);
  boot.PutU32(kDiagramBootstrapMagic);
  boot.PutU32(kDiagramBootstrapVersion);
  boot.PutU32(manifest_handle.first_page);
  boot.PutU32(manifest_handle.page_count);
  boot.PutU32(static_cast<uint32_t>(manifest.size()));
  UVD_RETURN_NOT_OK(fpm_->SetBootstrap(bootstrap));
  return fpm_->Checkpoint();
}

Status UVDiagram::CloseStorage() {
  if (fpm_ == nullptr) return Status::OK();
  UVD_RETURN_NOT_OK(Checkpoint());
  return fpm_->Close();
}

Result<UVDiagram> UVDiagram::Open(const std::string& path, const Options& options,
                                  Stats* stats) {
  UVDiagram d;
  d.options_ = options;
  d.options_.storage_path = path;
  d.options_.cr.kernel_mode = options.kernel_mode;
  d.options_.index.kernel_mode = options.kernel_mode;
  if (stats != nullptr) {
    d.stats_ = stats;
  } else {
    d.owned_stats_ = std::make_unique<Stats>();
    d.stats_ = d.owned_stats_.get();
  }

  storage::FilePageManagerOptions file_options;
  file_options.buffer_pool_pages = options.buffer_pool_pages;
  file_options.buffer_pool_protected_fraction =
      options.buffer_pool_protected_fraction;
  auto fpm = storage::FilePageManager::Open(path, file_options, d.stats_);
  if (!fpm.ok()) return fpm.status();
  d.fpm_ = fpm.value().get();
  d.pm_ = std::move(fpm).value();
  d.options_.page_size = d.pm_->page_size();

  const std::vector<uint8_t>& bootstrap = d.fpm_->bootstrap();
  if (bootstrap.size() < 20) {
    return Status::Corruption("paged file carries no diagram bootstrap");
  }
  storage::Decoder boot(bootstrap);
  if (boot.GetU32() != kDiagramBootstrapMagic) {
    return Status::InvalidArgument("paged file is not a UV-diagram store");
  }
  if (boot.GetU32() > kDiagramBootstrapVersion) {
    return Status::NotImplemented("diagram bootstrap from a future version");
  }
  SavedIndexHandle manifest_handle;
  manifest_handle.first_page = boot.GetU32();
  manifest_handle.page_count = boot.GetU32();
  const uint32_t manifest_bytes = boot.GetU32();

  std::vector<uint8_t> manifest;
  UVD_RETURN_NOT_OK(ReadPagesToStream(*d.pm_, manifest_handle, &manifest));
  if (manifest.size() < manifest_bytes) {
    return Status::Corruption("diagram manifest shorter than its declared size");
  }
  manifest.resize(manifest_bytes);
  if (manifest_bytes < 8) {
    return Status::Corruption("diagram manifest truncated");
  }
  storage::Decoder dec(manifest);
  if (dec.GetU32() != kDiagramManifestMagic) {
    return Status::Corruption("diagram manifest has a bad magic");
  }
  if (dec.GetU32() > kDiagramManifestVersion) {
    return Status::NotImplemented("diagram manifest from a future version");
  }
  d.domain_.lo.x = dec.GetDouble();
  d.domain_.lo.y = dec.GetDouble();
  d.domain_.hi.x = dec.GetDouble();
  d.domain_.hi.y = dec.GetDouble();

  d.store_ = std::make_unique<uncertain::ObjectStore>(d.pm_.get());
  UVD_RETURN_NOT_OK(d.store_->RestoreState(&dec));
  UVD_RETURN_NOT_OK(d.store_->LoadAll(&d.objects_, &d.ptrs_));

  SavedIndexHandle index_handle;
  index_handle.first_page = dec.GetU32();
  index_handle.page_count = dec.GetU32();
  UVD_ASSIGN_OR_RETURN(UVIndex index,
                       LoadUvIndex(d.pm_.get(), index_handle, d.stats_));
  d.index_ = std::make_unique<UVIndex>(std::move(index));

  // The R-tree is not persisted (it is derivable): leave it unbuilt and
  // let the first R-tree-path caller reconstruct it from the reloaded
  // objects. UV-index serving needs none of it.
  {
    MutexLock lock(*d.rtree_mu_);
    d.rtree_stale_ = true;
  }
  return d;
}

void UVDiagram::RefreshRtreeIfStale() const {
  MutexLock lock(*rtree_mu_);
  if (!rtree_stale_) return;
  auto tree =
      rtree::RTree::BulkLoad(objects_, ptrs_, pm_.get(), options_.rtree, stats_);
  UVD_CHECK(tree.ok()) << tree.status().ToString();
  if (rtree_ == nullptr) {
    // Reopened diagrams start without an R-tree (it is derivable, not
    // persisted); materialize it on first use.
    rtree_ = std::make_unique<rtree::RTree>(std::move(tree).value());
  } else {
    *rtree_ = std::move(tree).value();
  }
  rtree_stale_ = false;
}

Status UVDiagram::InsertObject(uncertain::UncertainObject object) {
  if (object.id() != static_cast<int>(objects_.size())) {
    return Status::InvalidArgument("new object id must equal objects().size()");
  }
  if (!domain_.Contains(object.center())) {
    return Status::InvalidArgument("object center outside the domain");
  }
  // Persist the record and register the object.
  auto ptr = store_->Append(object);
  if (!ptr.ok()) return ptr.status();
  objects_.push_back(std::move(object));
  ptrs_.push_back(ptr.value());
  {
    MutexLock lock(*rtree_mu_);
    rtree_stale_ = true;
  }

  // Derive the new object's cr-objects against the full population (the
  // lazily rebuilt R-tree covers every earlier insert).
  RefreshRtreeIfStale();
  const CrObjectFinder finder(objects_, *rtree_, domain_, options_.cr, stats_);
  const CrResult cr = finder.Find(objects_.size() - 1);
  std::vector<geom::Circle> cr_regions;
  cr_regions.reserve(cr.cr_objects.size());
  for (int id : cr.cr_objects) {
    cr_regions.push_back(objects_[static_cast<size_t>(id)].region());
  }
  return index_->InsertObjectLive(objects_.back().region(), objects_.back().id(),
                                  ptrs_.back(), std::move(cr_regions));
}

Result<std::vector<uncertain::PnnAnswer>> UVDiagram::QueryPnn(
    const geom::Point& q, rtree::PnnBreakdown* breakdown) const {
  return EvaluatePnnWithUvIndex(*index_, *store_, q, options_.qualification, stats_,
                                breakdown);
}

Result<std::vector<uncertain::PnnAnswer>> UVDiagram::QueryPnnWithRtree(
    const geom::Point& q, rtree::PnnBreakdown* breakdown) const {
  RefreshRtreeIfStale();
  return rtree::EvaluatePnnWithRtree(*rtree_, *store_, q, options_.qualification,
                                     stats_, breakdown);
}

Result<std::vector<int>> UVDiagram::AnswerObjectIds(const geom::Point& q) const {
  return RetrievePnnAnswerIds(*index_, q, stats_);
}

std::vector<UvPartition> UVDiagram::QueryUvPartitions(const geom::Box& range) const {
  return RetrieveUvPartitions(*index_, range, stats_);
}

Result<UvCellSummary> UVDiagram::QueryUvCellSummary(int object_id) const {
  return RetrieveUvCellSummary(*index_, object_id, /*use_offline_lists=*/true, stats_);
}

}  // namespace core
}  // namespace uvd
