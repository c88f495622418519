#include "core/build_pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "core/uv_cell.h"
#include "obs/trace_recorder.h"

namespace uvd {
namespace core {

const char* BuildMethodName(BuildMethod m) {
  switch (m) {
    case BuildMethod::kBasic:
      return "Basic";
    case BuildMethod::kICR:
      return "ICR";
    case BuildMethod::kIC:
      return "IC";
  }
  return "unknown";
}

namespace {

/// Anchors per Morton tile of the parallel kShared sweep: how often workers
/// touch the shared claim counter vs. how evenly tiles balance. Any value
/// yields byte-identical output.
constexpr size_t kTraversalTileSize = 64;

/// Per-worker Algorithm 2 workspace: always carries reusable buffers; under
/// CrFinderOptions::traversal_mode kShared additionally owns the worker's
/// TraversalSession (billing memo/visit tickers to the worker's Stats shard).
CrFinderWorkspace MakeWorkspace(const rtree::RTree& tree, const CrFinderOptions& cr,
                                Stats* stats) {
  CrFinderWorkspace ws;
  if (cr.traversal_mode == rtree::TraversalMode::kShared) {
    ws.session = std::make_unique<rtree::TraversalSession>(
        tree, rtree::TraversalSessionOptions{}, stats);
  }
  return ws;
}

/// Interleaves the low 16 bits of `v` with zeros (Morton spreading).
uint64_t SpreadBits16(uint32_t v) {
  uint64_t x = v & 0xFFFFu;
  x = (x | (x << 8)) & 0x00FF00FFu;
  x = (x | (x << 4)) & 0x0F0F0F0Fu;
  x = (x | (x << 2)) & 0x33333333u;
  x = (x | (x << 1)) & 0x55555555u;
  return x;
}

/// Deterministic space-filling sweep order for the shared traversal:
/// object indices sorted by the Morton (Z-order) key of their centers on a
/// 2^16 grid over the domain, ties by id. Adjacent tiles of this order are
/// spatially adjacent, which is what makes the session's pool, bound
/// and leaf memo hit.
std::vector<uint32_t> MortonOrder(
    const std::vector<uncertain::UncertainObject>& objects,
    const geom::Box& domain) {
  const size_t n = objects.size();
  const double w = domain.Width() > 0.0 ? domain.Width() : 1.0;
  const double h = domain.Height() > 0.0 ? domain.Height() : 1.0;
  constexpr double kMortonMax = 65535.0;  // largest 16-bit cell index
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    const geom::Point c = objects[i].center();
    const double nx = std::min(1.0, std::max(0.0, (c.x - domain.lo.x) / w));
    const double ny = std::min(1.0, std::max(0.0, (c.y - domain.lo.y) / h));
    keys[i] = (SpreadBits16(static_cast<uint32_t>(ny * kMortonMax)) << 1) |
              SpreadBits16(static_cast<uint32_t>(nx * kMortonMax));
  }
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  });
  return order;
}

std::vector<geom::Circle> RegionsOf(const std::vector<uncertain::UncertainObject>& objects,
                                    const std::vector<int>& ids) {
  std::vector<geom::Circle> regions;
  regions.reserve(ids.size());
  for (int id : ids) {
    regions.push_back(objects[static_cast<size_t>(id)].region());
  }
  return regions;
}

/// Stage-1 output for one object: the ids to index plus the per-object
/// BuildStats deltas. Callers accumulate the deltas in id order, so the
/// floating-point sums are the same for every worker count, bit for bit.
struct StageResult {
  std::vector<int> index_ids;      // ids whose outside regions describe U_i
  double i_prune_frac = 0.0;
  double c_prune_frac = 0.0;
  double cr_count = 0.0;
  double r_count = 0.0;
};

/// Stage 1 for objects[i]: pruning and/or exact-cell refinement. Pure
/// w.r.t. shared state — reads the dataset and the R-tree, bills only
/// `stats` (the calling worker's shard) — so any number of workers may run
/// it concurrently.
StageResult RunObjectStage(const std::vector<uncertain::UncertainObject>& objects,
                           const CrObjectFinder& finder, size_t i,
                           const geom::Box& domain, BuildMethod method,
                           double denom, geom::KernelMode kernel,
                           Stats* stats, CrFinderWorkspace* ws) {
  StageResult r;
  switch (method) {
    case BuildMethod::kBasic: {
      UVD_TRACE_SPAN("build", "robject");
      const UVCell cell = BuildExactUvCell(objects, i, domain, stats, kernel);
      r.index_ids = cell.RObjects();
      r.r_count = static_cast<double>(r.index_ids.size());
      break;
    }
    case BuildMethod::kICR: {
      const CrResult cr = finder.Find(i, ws);
      r.i_prune_frac = 1.0 - static_cast<double>(cr.after_i_pruning) / denom;
      r.c_prune_frac = 1.0 - static_cast<double>(cr.cr_objects.size()) / denom;
      r.cr_count = static_cast<double>(cr.cr_objects.size());
      {
        // Refinement: exact r-objects from the candidates.
        UVD_TRACE_SPAN("build", "robject");
        const UVCell cell = BuildUvCellFromCandidates(objects, i, cr.cr_objects,
                                                      domain, stats, kernel);
        r.index_ids = cell.RObjects();
      }
      r.r_count = static_cast<double>(r.index_ids.size());
      break;
    }
    case BuildMethod::kIC: {
      const CrResult cr = finder.Find(i, ws);
      r.i_prune_frac = 1.0 - static_cast<double>(cr.after_i_pruning) / denom;
      r.c_prune_frac = 1.0 - static_cast<double>(cr.cr_objects.size()) / denom;
      r.cr_count = static_cast<double>(cr.cr_objects.size());
      r.index_ids = cr.cr_objects;
      break;
    }
  }
  return r;
}

void Accumulate(const StageResult& r, BuildStats* s) {
  s->i_pruning_ratio += r.i_prune_frac;
  s->c_pruning_ratio += r.c_prune_frac;
  s->avg_cr_objects += r.cr_count;
  s->avg_r_objects += r.r_count;
}

Status ValidateIdOrder(const std::vector<uncertain::UncertainObject>& objects) {
  for (size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].id() != static_cast<int>(i)) {
      return Status::InvalidArgument("objects must be stored in id order");
    }
  }
  return Status::OK();
}

/// Turns the per-object sums accumulated by Accumulate into the
/// per-object means BuildStats reports.
void NormalizeBuildStats(size_t n, BuildStats* s) {
  if (n == 0) return;
  s->i_pruning_ratio /= static_cast<double>(n);
  s->c_pruning_ratio /= static_cast<double>(n);
  s->avg_cr_objects /= static_cast<double>(n);
  s->avg_r_objects /= static_cast<double>(n);
}

/// The worker count of a build over n objects, for both stages:
/// build_threads (hardware concurrency when <= 0) capped at n, since a
/// worker beyond the n-th would find nothing to claim.
int BuildWorkers(const BuildPipelineOptions& options, size_t n) {
  const int threads = ThreadPool::ResolveThreads(options.build_threads);
  return n > 0 ? static_cast<int>(std::min(static_cast<size_t>(threads), n)) : 1;
}

}  // namespace

Status RunStage2(std::vector<UVIndex::BulkInsertItem> items, ThreadPool* pool,
                 int workers, int max_depth, UVIndex* index) {
  UVD_TRACE_SPAN("build", "stage2");
  UVIndex::PartitionedInsertOptions popts;
  popts.threads = workers;
  popts.max_depth = max_depth;
  UVD_RETURN_NOT_OK(index->InsertObjectsPartitioned(std::move(items), pool, popts));
  UVD_TRACE_SPAN("build", "stage2_finalize");
  return index->FinalizeWith(pool, workers);
}

Status RunBuildPipeline(const std::vector<uncertain::UncertainObject>& objects,
                        const std::vector<uncertain::ObjectPtr>& ptrs,
                        const rtree::RTree& tree, const geom::Box& domain,
                        const BuildPipelineOptions& options, UVIndex* index,
                        BuildStats* build_stats, Stats* stats) {
  if (objects.size() != ptrs.size()) {
    return Status::InvalidArgument("objects/ptrs size mismatch");
  }
  const size_t n = objects.size();
  const int workers = BuildWorkers(options, n);
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers - 1);  // the calling thread is the last
  ThreadPool* const pool_ptr = pool ? &*pool : nullptr;
  std::vector<std::vector<int>> index_ids;
  UVD_RETURN_NOT_OK(ComputeStage1Candidates(objects, tree, domain, options, &index_ids,
                                            build_stats, stats, pool_ptr));

  std::vector<UVIndex::BulkInsertItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i].region = objects[i].region();
    items[i].id = objects[i].id();
    items[i].ptr = ptrs[i];
    items[i].cr_regions = RegionsOf(objects, index_ids[i]);
    index_ids[i].clear();
    index_ids[i].shrink_to_fit();
  }
  return RunStage2(std::move(items), pool_ptr, workers, options.stage2_max_depth, index);
}

Status ComputeStage1Candidates(const std::vector<uncertain::UncertainObject>& objects,
                               const rtree::RTree& tree, const geom::Box& domain,
                               const BuildPipelineOptions& options,
                               std::vector<std::vector<int>>* index_ids,
                               BuildStats* build_stats, Stats* stats, ThreadPool* pool) {
  UVD_RETURN_NOT_OK(ValidateIdOrder(objects));
  const size_t n = objects.size();
  const int workers = BuildWorkers(options, n);
  std::optional<ThreadPool> own_pool;
  if (pool == nullptr && workers > 1) pool = &own_pool.emplace(workers - 1);

  UVD_TRACE_SPAN("build", "stage1");
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  std::vector<StageResult> results(n);
  // Tiled Morton sweep under kShared: workers claim contiguous tiles of
  // the space-filling order, so each session's pool/bound/memo sees
  // spatially adjacent anchors back to back (ids are in dataset order,
  // which is spatially random, so this matters for one worker too).
  // Results land positionally (results[i]) and every per-object output is
  // state-independent, so the claim interleaving and tile size never show
  // in the output.
  const bool tiled = options.cr.traversal_mode == rtree::TraversalMode::kShared;
  std::vector<uint32_t> order;
  if (tiled) order = MortonOrder(objects, domain);
  const size_t tile = tiled ? kTraversalTileSize : 1;
  std::vector<Stats> shards(static_cast<size_t>(workers));
  std::vector<Status> failures(static_cast<size_t>(workers));
  std::atomic<size_t> next{0};
  RunWorkers(pool, workers, [&](int w) {
    UVD_TRACE_SPAN("build", "stage1_worker");
    Stats* shard = stats != nullptr ? &shards[static_cast<size_t>(w)] : nullptr;
    const CrObjectFinder finder(objects, tree, domain, options.cr, shard);
    CrFinderWorkspace ws = MakeWorkspace(tree, options.cr, shard);
    while (ws.status().ok()) {
      const size_t claim = next.fetch_add(1, std::memory_order_relaxed);
      const size_t begin = claim * tile;
      if (begin >= n) break;
      const size_t end = std::min(n, begin + tile);
      for (size_t j = begin; j < end; ++j) {
        const size_t i = tiled ? order[j] : j;
        results[i] = RunObjectStage(objects, finder, i, domain, options.method, denom,
                                    options.cr.kernel_mode, shard, &ws);
      }
    }
    failures[static_cast<size_t>(w)] = ws.status();
  });
  if (stats != nullptr) {
    for (const Stats& shard : shards) stats->MergeFrom(shard);
  }
  // A worker stops at its first R-tree leaf-read failure; the lowest
  // failing worker's is returned.
  for (const Status& failure : failures) UVD_RETURN_NOT_OK(failure);

  // Accumulate the per-object BuildStats deltas in id order — the same
  // floating-point summation order for every worker count, bit for bit.
  BuildStats local;
  index_ids->clear();
  index_ids->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Accumulate(results[i], &local);
    index_ids->push_back(std::move(results[i].index_ids));
  }
  NormalizeBuildStats(n, &local);
  if (build_stats != nullptr) *build_stats = local;
  return Status::OK();
}

}  // namespace core
}  // namespace uvd
