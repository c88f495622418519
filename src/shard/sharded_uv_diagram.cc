#include "shard/sharded_uv_diagram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace_recorder.h"
#include "rtree/rtree.h"
#include "storage/record.h"

namespace uvd {
namespace shard {

namespace {

/// Clamped half-open ownership along one axis: [lo, hi), closed at hi only
/// where hi is the domain's own max edge (no upper neighbor exists there).
bool OwnsAxis(double v, double lo, double hi, double domain_hi) {
  if (v < lo) return false;
  if (v < hi) return true;
  return v == hi && hi == domain_hi;
}

/// One split of the median partitioner: the cut along [axis_lo, axis_hi]
/// minimizing the predicted worst per-shard share
/// max(n_lower/kl, n_upper/kr), where n_lower(c) counts the spans with
/// lo <= c and n_upper(c) those with hi >= c — a span straddling c counts
/// toward both sides, exactly the replica the cut would create. `los` and
/// `his` are the spans' endpoints, clamped to the axis. Both counts change
/// only at endpoints, so the candidates are every distinct endpoint plus
/// the midpoints between consecutive distinct endpoints; ties break toward
/// the geometric proportional cut, then toward the smaller coordinate
/// (deterministic). Falls back to the geometric cut when no candidate is
/// strictly interior.
double MedianCut(std::vector<double> los, std::vector<double> his, int kl, int kr,
                 double axis_lo, double axis_hi) {
  const double geometric =
      axis_lo + (axis_hi - axis_lo) *
                    (static_cast<double>(kl) / static_cast<double>(kl + kr));
  std::sort(los.begin(), los.end());
  std::sort(his.begin(), his.end());
  std::vector<double> endpoints(los.size() + his.size());
  std::merge(los.begin(), los.end(), his.begin(), his.end(), endpoints.begin());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()), endpoints.end());

  double best_cut = geometric;
  double best_share = std::numeric_limits<double>::infinity();
  double best_geo_dist = std::numeric_limits<double>::infinity();
  const auto consider = [&](double c) {
    if (!(c > axis_lo && c < axis_hi)) return;  // sub-boxes must have area
    const auto n_lower = std::upper_bound(los.begin(), los.end(), c) - los.begin();
    const auto n_upper = his.end() - std::lower_bound(his.begin(), his.end(), c);
    const double share = std::max(static_cast<double>(n_lower) / kl,
                                  static_cast<double>(n_upper) / kr);
    const double geo_dist = std::abs(c - geometric);
    if (share < best_share ||
        (share == best_share &&
         (geo_dist < best_geo_dist || (geo_dist == best_geo_dist && c < best_cut)))) {
      best_cut = c;
      best_share = share;
      best_geo_dist = geo_dist;
    }
  };
  for (size_t i = 0; i < endpoints.size(); ++i) {
    consider(endpoints[i]);
    if (i + 1 < endpoints.size()) consider(0.5 * (endpoints[i] + endpoints[i + 1]));
  }
  return best_cut;
}

/// Recursive median partitioner. `extents` are the boxes touching `box`
/// (straddlers of an ancestor cut appear on both sides, so the recursion
/// sees the same replica-inflated loads the shards will carry). The cut
/// double is computed once and shared by both halves — adjacent boxes agree
/// bitwise on their common edge, as the half-open router requires.
void MedianSplit(const geom::Box& box, int k, const std::vector<geom::Box>& extents,
                 std::vector<geom::Box>* out) {
  if (k <= 1) {
    out->push_back(box);
    return;
  }
  const int kl = (k + 1) / 2;
  const int kr = k - kl;
  const bool cut_x = box.Width() >= box.Height();
  const double axis_lo = cut_x ? box.lo.x : box.lo.y;
  const double axis_hi = cut_x ? box.hi.x : box.hi.y;

  std::vector<double> los, his;
  los.reserve(extents.size());
  his.reserve(extents.size());
  for (const geom::Box& b : extents) {
    los.push_back(std::max(cut_x ? b.lo.x : b.lo.y, axis_lo));
    his.push_back(std::min(cut_x ? b.hi.x : b.hi.y, axis_hi));
  }
  const double cut = MedianCut(los, his, kl, kr, axis_lo, axis_hi);

  std::vector<geom::Box> lower, upper;
  for (size_t i = 0; i < extents.size(); ++i) {
    if (los[i] <= cut) lower.push_back(extents[i]);
    if (his[i] >= cut) upper.push_back(extents[i]);
  }
  if (cut_x) {
    MedianSplit(geom::Box(box.lo, {cut, box.hi.y}), kl, lower, out);
    MedianSplit(geom::Box({cut, box.lo.y}, box.hi), kr, upper, out);
  } else {
    MedianSplit(geom::Box(box.lo, {box.hi.x, cut}), kl, lower, out);
    MedianSplit(geom::Box({box.lo.x, cut}, box.hi), kr, upper, out);
  }
}

}  // namespace

std::vector<geom::Box> PartitionDomain(const geom::Box& domain, int num_shards,
                                       const std::vector<geom::Box>& extents) {
  // K = 1 makes no cut: the single shard is the closed global domain box
  // itself (a degenerate "cut" would hand it a half-open max edge and drop
  // boundary probes).
  std::vector<geom::Box> boxes;
  boxes.reserve(static_cast<size_t>(std::max(1, num_shards)));
  MedianSplit(domain, num_shards, extents, &boxes);
  return boxes;
}

namespace {

/// Derives the per-object partitioning extents from the stage-1 candidate
/// lists, in id order: a box around each center reaching as far as the
/// object's UV-cell is predicted to, clamped to the domain. A
/// load-prediction heuristic only: shard registration uses the exact
/// conservative core::UvCellMayOverlap test, so partition quality never
/// affects correctness. Deterministic for a fixed dataset, so the median
/// cuts are too.
std::vector<geom::Box> PredictCellExtents(
    const std::vector<uncertain::UncertainObject>& objects,
    const std::vector<std::vector<geom::Circle>>& cell_regions,
    const geom::Box& domain) {
  std::vector<geom::Box> extents;
  extents.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    const geom::Point c = objects[i].center();
    const double r = objects[i].region().radius;
    // The cell's reach toward cr-object j ends where j's UV-edge crosses
    // the inter-center segment, at (dist + r_i + r_j) / 2 from c_i; the
    // nearest constrainer gives the tightest such bound. Applied
    // symmetrically it is a heuristic (cells reach farther away from
    // their neighbors), which is fine: extents only weight the median
    // cuts, registration stays with UvCellMayOverlap.
    double reach = std::numeric_limits<double>::infinity();
    for (const geom::Circle& cr : cell_regions[i]) {
      const double dist = geom::Distance(c, cr.center);
      if (dist <= 0.0) continue;  // self or coincident center
      reach = std::min(reach, 0.5 * (dist + r + cr.radius));
    }
    if (!std::isfinite(reach)) {
      reach = std::max(domain.Width(), domain.Height());  // unconstrained cell
    }
    reach = std::max(reach, r);
    geom::Box bounds({c.x - reach, c.y - reach}, {c.x + reach, c.y + reach});
    bounds.lo.x = std::max(bounds.lo.x, domain.lo.x);
    bounds.lo.y = std::max(bounds.lo.y, domain.lo.y);
    bounds.hi.x = std::min(bounds.hi.x, domain.hi.x);
    bounds.hi.y = std::min(bounds.hi.y, domain.hi.y);
    extents.push_back(bounds);
  }
  return extents;
}

// A shard's IndexUnit header: its place in the fleet, so every shard file
// is self-describing and Open can bootstrap the deployment from shard 0 and
// cross-check the rest. Layout: shard index, fleet size, object count,
// global domain (4 doubles), registered id count, registered ids.
constexpr size_t kShardHeaderPrefixBytes = 4 * sizeof(uint32_t) + 4 * sizeof(double);

std::vector<uint8_t> EncodeShardHeader(size_t s, size_t fleet_size, size_t object_count,
                                       const geom::Box& domain,
                                       const std::vector<int>& object_ids) {
  std::vector<uint8_t> header;
  storage::Encoder enc(&header);
  enc.PutU32(static_cast<uint32_t>(s));
  enc.PutU32(static_cast<uint32_t>(fleet_size));
  enc.PutU32(static_cast<uint32_t>(object_count));
  enc.PutDouble(domain.lo.x);
  enc.PutDouble(domain.lo.y);
  enc.PutDouble(domain.hi.x);
  enc.PutDouble(domain.hi.y);
  enc.PutU32(static_cast<uint32_t>(object_ids.size()));
  for (int id : object_ids) enc.PutI32(id);
  return header;
}

}  // namespace

ShardedUVDiagram::ShardedUVDiagram(const ShardedUVDiagramOptions& options, Stats* stats)
    : options_(options), stats_(stats) {
  if (stats_ == nullptr) {
    owned_stats_ = std::make_unique<Stats>();
    stats_ = owned_stats_.get();
  }
}

Result<ShardedUVDiagram> ShardedUVDiagram::Build(
    std::vector<uncertain::UncertainObject> objects, const geom::Box& domain,
    const ShardedUVDiagramOptions& options, Stats* stats) {
  UVD_RETURN_NOT_OK(core::ValidateBuildInput(objects, domain));

  ShardedUVDiagram d(options, stats);
  d.objects_ = std::move(objects);
  d.domain_ = domain;
  d.options_.num_shards = std::max(1, options.num_shards);
  const size_t n = d.objects_.size();

  // Global stage 1 against the full population: a scratch store + R-tree
  // drive Algorithm 2's pruning exactly as an unsharded build would, so
  // every object's cell description is the unsharded one. Both are
  // discarded afterwards — serving state is per-shard only.
  std::vector<std::vector<int>> index_ids;
  {
    storage::PageManager scratch_pm(d.options_.diagram.page_size, d.stats_);
    uncertain::ObjectStore scratch_store(&scratch_pm);
    std::vector<uncertain::ObjectPtr> scratch_ptrs;
    UVD_RETURN_NOT_OK(scratch_store.BulkLoad(d.objects_, &scratch_ptrs));
    UVD_ASSIGN_OR_RETURN(
        rtree::RTree tree,
        rtree::RTree::BulkLoad(d.objects_, scratch_ptrs, &scratch_pm,
                               d.options_.diagram.rtree, d.stats_));
    UVD_RETURN_NOT_OK(core::ComputeStage1Candidates(
        d.objects_, tree, domain, core::PipelineOptionsFor(d.options_.diagram),
        &index_ids, &d.build_stats_, d.stats_));
  }
  std::vector<std::vector<geom::Circle>> cell_regions(n);
  for (size_t i = 0; i < n; ++i) {
    cell_regions[i].reserve(index_ids[i].size());
    for (int id : index_ids[i]) {
      cell_regions[i].push_back(d.objects_[static_cast<size_t>(id)].region());
    }
    index_ids[i].clear();
    index_ids[i].shrink_to_fit();
  }
  // Median cuts over extents that ride the same stage-1 output (no extra
  // pass); the extents are freed once the boxes exist.
  const std::vector<geom::Box> boxes = PartitionDomain(
      domain, d.options_.num_shards, PredictCellExtents(d.objects_, cell_regions, domain));

  // Stage 2, K ways: register + bulk-load + insert + finalize one shard.
  // Shards share only the read-only dataset and stage-1 output; storage,
  // index and Stats are private per shard, so the builds are independent.
  d.shards_.resize(boxes.size());
  std::vector<Status> shard_status(boxes.size());

  const int build_threads = d.options_.diagram.build_threads > 0
                                ? d.options_.diagram.build_threads
                                : ThreadPool::DefaultThreads();
  const int workers = std::min<int>(build_threads, static_cast<int>(boxes.size()));
  // Threads left over once every shard build has a worker go to each
  // shard's own partitioned stage 2 (K=2 shards on 8 build threads: 2
  // shard builds x 4 insertion workers each).
  const int stage2_threads = std::max(1, build_threads / std::max(1, workers));

  const auto build_shard = [&](size_t s) {
    UVD_TRACE_SPAN("shard", "build_shard");
    Shard& sh = d.shards_[s];
    sh.box = boxes[s];
    sh.stats = std::make_unique<Stats>();
    const std::string& prefix = d.options_.diagram.storage_path;
    shard_status[s] = sh.Create(prefix.empty() ? prefix : ShardFilePath(prefix, s),
                                d.options_.diagram.page_size,
                                d.options_.diagram.buffer_pool_pages, sh.stats.get());
    if (!shard_status[s].ok()) return;

    // Border replication: every object whose cell may reach this sub-box,
    // in global id order (insertion order therefore matches the unsharded
    // build's for the objects this shard holds).
    for (size_t i = 0; i < n; ++i) {
      if (core::UvCellMayOverlap(d.objects_[i].region(), cell_regions[i], sh.box,
                                 sh.stats.get())) {
        sh.object_ids.push_back(static_cast<int>(i));
      }
    }
    std::vector<uncertain::UncertainObject> subset;
    subset.reserve(sh.object_ids.size());
    for (int id : sh.object_ids) subset.push_back(d.objects_[static_cast<size_t>(id)]);
    shard_status[s] = sh.store->BulkLoad(subset, &sh.ptrs);
    if (!shard_status[s].ok()) return;

    core::UVIndexOptions index_options = d.options_.diagram.index;
    index_options.accept_border_objects = true;  // replicas may center elsewhere
    sh.index = std::make_unique<core::UVIndex>(sh.box, sh.pm.get(), index_options,
                                               sh.stats.get());
    // Shard stage 2 is the pipeline's own (core::RunStage2) with this
    // shard's share of the build threads: identical bytes for every thread
    // count, so sharded answers stay bitwise-equal to the unsharded build.
    std::vector<core::UVIndex::BulkInsertItem> items(sh.object_ids.size());
    for (size_t k = 0; k < sh.object_ids.size(); ++k) {
      const size_t gid = static_cast<size_t>(sh.object_ids[k]);
      items[k].region = d.objects_[gid].region();
      items[k].id = sh.object_ids[k];
      items[k].ptr = sh.ptrs[k];
      items[k].cr_regions = cell_regions[gid];  // copy: shared across shards
    }
    std::optional<ThreadPool> stage2_pool;
    if (stage2_threads > 1) stage2_pool.emplace(stage2_threads);
    shard_status[s] = core::RunStage2(std::move(items),
                                      stage2_pool ? &*stage2_pool : nullptr,
                                      stage2_threads,
                                      d.options_.diagram.stage2_max_depth,
                                      sh.index.get());
  };

  // Shared state across workers is exactly one atomic claim cursor; each
  // shard's storage/index is private to whichever worker claims it, so
  // there is no guarded state here for the thread-safety analysis — the
  // pool's own lock discipline is annotated at its source
  // (common/thread_pool.h; docs/STATIC_ANALYSIS.md).
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  std::atomic<size_t> next{0};
  RunWorkers(pool ? &*pool : nullptr, workers, [&](int) {
    for (;;) {
      const size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= boxes.size()) return;
      build_shard(s);
    }
  });
  for (const Status& status : shard_status) UVD_RETURN_NOT_OK(status);
  return d;
}

std::string ShardedUVDiagram::ShardFilePath(const std::string& path_prefix,
                                            size_t s) {
  return path_prefix + ".shard" + std::to_string(s);
}

Status ShardedUVDiagram::Checkpoint() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    UVD_RETURN_NOT_OK(shards_[s].Checkpoint(EncodeShardHeader(
        s, shards_.size(), objects_.size(), domain_, shards_[s].object_ids)));
  }
  return Status::OK();
}

Status ShardedUVDiagram::CloseStorage() {
  if (!persistent()) return Status::OK();
  UVD_RETURN_NOT_OK(Checkpoint());
  for (Shard& sh : shards_) {
    UVD_RETURN_NOT_OK(sh.fpm->Close());
  }
  return Status::OK();
}

Result<ShardedUVDiagram> ShardedUVDiagram::Open(
    const std::string& path_prefix, const ShardedUVDiagramOptions& options,
    Stats* stats) {
  ShardedUVDiagram d(options, stats);
  d.options_.diagram.storage_path = path_prefix;

  // Shard 0's header names the fleet size and object count; nothing is
  // sized from either, so a damaged count fails a check instead of an
  // allocation.
  uint32_t num_shards = 0;
  uint32_t total_objects = 0;
  std::vector<uncertain::UncertainObject> merged;
  for (size_t s = 0; num_shards == 0 || s < num_shards; ++s) {
    Shard sh;
    sh.stats = std::make_unique<Stats>();
    std::vector<uint8_t> header;
    std::vector<uncertain::UncertainObject> subset;
    UVD_RETURN_NOT_OK(sh.Open(ShardFilePath(path_prefix, s),
                              options.diagram.buffer_pool_pages, sh.stats.get(),
                              &header, &subset));
    if (header.empty()) {
      return Status::InvalidArgument(
          "paged file is an unsharded UV-diagram (use UVDiagram::Open)");
    }
    if (header.size() < kShardHeaderPrefixBytes) {
      return Status::Corruption("shard header truncated");
    }
    storage::Decoder dec(header);
    const uint32_t shard_index = dec.GetU32();
    const uint32_t fleet_size = dec.GetU32();
    const uint32_t object_count = dec.GetU32();
    geom::Box file_domain;
    file_domain.lo.x = dec.GetDouble();
    file_domain.lo.y = dec.GetDouble();
    file_domain.hi.x = dec.GetDouble();
    file_domain.hi.y = dec.GetDouble();
    const uint32_t registered = dec.GetU32();
    if (dec.remaining() != static_cast<size_t>(registered) * sizeof(int32_t) ||
        subset.size() != registered) {
      return Status::Corruption("shard id count disagrees with its header or store");
    }
    if (shard_index != s || fleet_size == 0) {
      return Status::Corruption("shard header names the wrong shard index");
    }
    if (s == 0) {
      num_shards = fleet_size;
      total_objects = object_count;
      d.domain_ = file_domain;
    } else if (fleet_size != num_shards || object_count != total_objects) {
      return Status::Corruption(
          "shard files disagree about the fleet size (mixed checkpoints?)");
    }
    sh.object_ids.reserve(registered);
    for (uint32_t i = 0; i < registered; ++i) {
      const int gid = dec.GetI32();
      if (gid < 0 || static_cast<uint32_t>(gid) >= total_objects ||
          subset[i].id() != gid) {
        return Status::Corruption("shard header holds an out-of-range or mismatched id");
      }
      sh.object_ids.push_back(gid);
    }
    d.shards_.push_back(std::move(sh));
    merged.insert(merged.end(), std::make_move_iterator(subset.begin()),
                  std::make_move_iterator(subset.end()));
  }

  // Every object is registered with at least the shard owning its center,
  // so the merge must cover 0..n-1. Border replicas decode to identical
  // records; keep the first shard's copy of each id.
  const auto id_less = [](const uncertain::UncertainObject& a,
                          const uncertain::UncertainObject& b) { return a.id() < b.id(); };
  std::stable_sort(merged.begin(), merged.end(), id_less);
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [&](const auto& a, const auto& b) { return !id_less(a, b); }),
               merged.end());
  if (merged.size() != total_objects) {
    return Status::Corruption("shard stores do not cover every object id");
  }
  d.objects_ = std::move(merged);
  d.options_.num_shards = static_cast<int>(num_shards);
  d.options_.diagram.page_size = d.shards_.front().pm->page_size();
  return d;
}

int ShardedUVDiagram::ShardIndexForPoint(const geom::Point& p) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const geom::Box& box = shards_[s].box;
    if (OwnsAxis(p.x, box.lo.x, box.hi.x, domain_.hi.x) &&
        OwnsAxis(p.y, box.lo.y, box.hi.y, domain_.hi.y)) {
      return static_cast<int>(s);
    }
  }
  // Outside the closed domain: clamp to the nearest shard, whose index
  // rejects the probe with the InvalidArgument an unsharded query yields.
  size_t best = 0;
  double best_dist = shards_[0].box.MinDist(p);
  for (size_t s = 1; s < shards_.size(); ++s) {
    const double dist = shards_[s].box.MinDist(p);
    if (dist < best_dist) {
      best = s;
      best_dist = dist;
    }
  }
  return static_cast<int>(best);
}

std::vector<int> ShardedUVDiagram::ShardsForRange(const geom::Box& range) const {
  std::vector<int> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].box.Intersects(range)) out.push_back(static_cast<int>(s));
  }
  return out;
}

std::vector<int> ShardedUVDiagram::ShardsForObject(int object_id) const {
  std::vector<int> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<int>& ids = shards_[s].object_ids;
    if (std::binary_search(ids.begin(), ids.end(), object_id)) {
      out.push_back(static_cast<int>(s));
    }
  }
  return out;
}

query::DiagramView ShardedUVDiagram::ViewOfShard(size_t s) const {
  const Shard& sh = shards_[s];
  query::DiagramView view;
  view.index = sh.index.get();
  view.store = sh.store.get();
  view.qualification = options_.diagram.qualification;
  view.stats = sh.stats.get();
  return view;
}

Stats ShardedUVDiagram::AggregateStats() const {
  Stats out(*stats_);
  for (const Shard& sh : shards_) out.MergeFrom(*sh.stats);
  return out;
}

std::vector<ShardedUVDiagram::ShardBalance> ShardedUVDiagram::BalanceReport() const {
  // Registration multiplicity per object: an object registered with more
  // than one shard is a border replica in every shard that holds it.
  std::vector<uint8_t> multiplicity(objects_.size(), 0);
  for (const Shard& sh : shards_) {
    for (int id : sh.object_ids) {
      uint8_t& m = multiplicity[static_cast<size_t>(id)];
      if (m < 0xFF) ++m;
    }
  }
  std::vector<ShardBalance> report;
  report.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    ShardBalance b;
    b.shard = static_cast<int>(s);
    b.objects = sh.object_ids.size();
    for (int id : sh.object_ids) {
      if (multiplicity[static_cast<size_t>(id)] > 1) ++b.replicas;
    }
    b.leaves = sh.index->num_leaves();
    b.leaf_pages = sh.index->total_leaf_pages();
    b.height = sh.index->height();
    b.bytes_on_disk = sh.pm->bytes_on_disk();
    report.push_back(b);
  }
  return report;
}

std::string ShardedUVDiagram::BalanceReportString() const {
  const std::vector<ShardBalance> report = BalanceReport();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%6s %10s %10s %8s %8s %7s %12s\n", "shard",
                "objects", "replicas", "leaves", "pages", "height", "disk KiB");
  out += line;
  size_t min_objects = SIZE_MAX, max_objects = 0, total_objects = 0;
  for (const ShardBalance& b : report) {
    std::snprintf(line, sizeof(line), "%6d %10zu %10zu %8zu %8zu %7d %12.1f\n",
                  b.shard, b.objects, b.replicas, b.leaves, b.leaf_pages, b.height,
                  static_cast<double>(b.bytes_on_disk) / 1024.0);
    out += line;
    min_objects = std::min(min_objects, b.objects);
    max_objects = std::max(max_objects, b.objects);
    total_objects += b.objects;
  }
  const double mean =
      report.empty() ? 0.0
                     : static_cast<double>(total_objects) /
                           static_cast<double>(report.size());
  std::snprintf(line, sizeof(line),
                "objects min/max/mean = %zu / %zu / %.1f, imbalance (max/mean) = "
                "%.2f\n",
                min_objects == SIZE_MAX ? 0 : min_objects, max_objects, mean,
                mean > 0.0 ? static_cast<double>(max_objects) / mean : 0.0);
  out += line;
  return out;
}

}  // namespace shard
}  // namespace uvd
