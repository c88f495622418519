#include "core/cr_finder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "geom/convex_hull.h"
#include "obs/trace_recorder.h"

namespace uvd {
namespace core {

namespace {
/// k of the seed-selection k-NN query (paper Sec. IV-B).
constexpr int kSeedKnnK = 300;
}  // namespace

CrObjectFinder::CrObjectFinder(const std::vector<uncertain::UncertainObject>& objects,
                               const rtree::RTree& tree, const geom::Box& domain,
                               const CrFinderOptions& options, Stats* stats)
    : objects_(objects), tree_(tree), domain_(domain), options_(options), stats_(stats) {
  UVD_CHECK_GT(options_.num_sectors, 0);
}

std::vector<int> CrObjectFinder::SelectSeeds(
    size_t index, const std::vector<rtree::LeafEntry>& knn) const {
  const uncertain::UncertainObject& anchor = objects_[index];
  // Divide the domain into k_s sectors centered at c_i and keep the object
  // closest to c_i per sector (paper Sec. IV-B). The k-NN result arrives in
  // ascending dist_min order, so the first hit per sector wins.
  const double sector_width = 2.0 * M_PI / options_.num_sectors;
  std::vector<int> seed_per_sector(static_cast<size_t>(options_.num_sectors), -1);
  int found = 0;
  for (const rtree::LeafEntry& e : knn) {
    if (e.id == anchor.id()) continue;
    const geom::Vec2 d = e.mbc.center - anchor.center();
    if (d.Norm2() == 0.0) continue;  // co-centered: no direction, skip
    // An overlapping neighbor has an empty outside region (Sec. III-C) and
    // cannot shrink P_i, so it is useless as a seed; take the nearest
    // object per sector that actually contributes a UV-edge.
    const double dist = d.Norm();
    if (dist <= anchor.radius() + e.mbc.radius) continue;
    const int sector =
        std::min(options_.num_sectors - 1,
                 static_cast<int>(geom::NormalizeAngle(d.Angle()) / sector_width));
    if (seed_per_sector[static_cast<size_t>(sector)] < 0) {
      seed_per_sector[static_cast<size_t>(sector)] = e.id;
      if (++found == options_.num_sectors) break;
    }
  }
  std::vector<int> seeds;
  seeds.reserve(static_cast<size_t>(found));
  for (int id : seed_per_sector) {
    if (id >= 0) seeds.push_back(id);
  }
  return seeds;
}

UVCell CrObjectFinder::BuildSeedRegion(size_t index, std::vector<int>* seed_ids,
                                       CrFinderWorkspace* ws) const {
  CrFinderWorkspace local;
  if (ws == nullptr) ws = &local;
  const uncertain::UncertainObject& anchor = objects_[index];
  // k-NN by dist_min around c_i; +1 because the anchor itself is returned.
  // The session (entry pool) and the fresh traversal return the same
  // bytes — the canonical (dist_min, id) order, see rtree::KnnHeapItem.
  std::vector<rtree::LeafEntry>& knn = ws->knn;
  {
    UVD_TRACE_SPAN("cr", "traversal");
    if (ws->session != nullptr) {
      ws->session->KNearest(anchor.center(), kSeedKnnK + 1, &knn);
    } else {
      tree_.KNearestByDistMin(anchor.center(), kSeedKnnK + 1,
                              &ws->scratch, &knn);
    }
  }
  const std::vector<int> seeds = SelectSeeds(index, knn);
  UVCell region(anchor.region(), anchor.id(), domain_, stats_);
  for (int id : seeds) {
    region.SubtractOutsideRegion(objects_[static_cast<size_t>(id)].region(), id);
  }
  // Adaptive widening: if the seed region reaches beyond the k-NN ball the
  // eight seeds under-constrain it (dense data makes near seeds' edges
  // angularly narrow). The pool is already in memory, so refine with all of
  // it — every inserted constraint is a genuine outside region, keeping
  // P_i a superset of U_i (Lemma 2/3 stay applicable).
  double knn_radius = 0.0;
  for (const rtree::LeafEntry& e : knn) {
    knn_radius = std::max(knn_radius, e.mbc.DistMin(anchor.center()));
  }
  if (options_.adaptive_seed_widening &&
      region.MaxDistanceFromCenter() > knn_radius) {
    UVD_TRACE_SPAN("cr", "kernel");
    if (options_.kernel_mode == geom::KernelMode::kBatch) {
      std::vector<geom::Circle> regions;
      std::vector<int> ids;
      regions.reserve(knn.size());
      ids.reserve(knn.size());
      for (const rtree::LeafEntry& e : knn) {
        if (e.id == anchor.id()) continue;
        regions.push_back(e.mbc);
        ids.push_back(e.id);
      }
      region.SubtractOutsideRegions(regions.data(), ids.data(), regions.size());
    } else {
      for (const rtree::LeafEntry& e : knn) {
        if (e.id == anchor.id()) continue;
        region.SubtractOutsideRegion(e.mbc, e.id);
      }
    }
  }
  if (seed_ids != nullptr) *seed_ids = seeds;
  return region;
}

CrResult CrObjectFinder::Find(size_t index, CrFinderWorkspace* ws) const {
  UVD_CHECK_LT(index, objects_.size());
  CrFinderWorkspace local;
  if (ws == nullptr) ws = &local;
  const uncertain::UncertainObject& anchor = objects_[index];
  CrResult result;
  result.considered = objects_.size() - 1;

  // Step 1: seeds and initial possible region.
  UVCell region = [&] {
    UVD_TRACE_SPAN("cr", "seed");
    return BuildSeedRegion(index, &result.seeds, ws);
  }();

  UVD_TRACE_SPAN("cr", "prune");

  // Step 2: I-pruning (Lemma 2). Only objects whose centers lie within
  // Cir(c_i, 2d - r_i) can reshape P_i.
  const double d = region.MaxDistanceFromCenter();
  result.max_dist = d;
  const double range = 2.0 * d - anchor.radius();
  // The session returns the same candidate SET as the fresh traversal,
  // possibly in a different order — unobservable here: every keep decision
  // below is per-candidate and cr_objects is sorted before returning.
  std::vector<rtree::LeafEntry>& candidates = ws->candidates;
  {
    UVD_TRACE_SPAN("cr", "traversal");
    if (ws->session != nullptr) {
      ws->session->CentersInRange(anchor.center(), range, &candidates);
    } else {
      tree_.CentersInRange(anchor.center(), range, &ws->scratch, &candidates);
    }
  }
  // Drop the anchor itself.
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](const rtree::LeafEntry& e) {
                                    return e.id == anchor.id();
                                  }),
                   candidates.end());
  result.after_i_pruning = candidates.size();

  // Step 3: C-pruning (Lemma 3). d-bounds at the convex hull vertices of
  // P_i: O_j survives iff c_j is inside some Cir(v_m, dist(v_m, c_i)).
  // Squared distances on both sides — same decision, no per-candidate sqrt.
  const std::vector<geom::Point> hull = geom::ConvexHull(region.Vertices());
  std::vector<double> hull_dist2;
  hull_dist2.reserve(hull.size());
  for (const geom::Point& v : hull) {
    hull_dist2.push_back(geom::DistanceSquared(v, anchor.center()));
  }

  result.cr_objects.reserve(candidates.size());
  {
    UVD_TRACE_SPAN("cr", "kernel");
    if (options_.kernel_mode == geom::KernelMode::kBatch && !hull.empty()) {
      std::vector<double> xs, ys;
      xs.reserve(candidates.size());
      ys.reserve(candidates.size());
      for (const rtree::LeafEntry& e : candidates) {
        xs.push_back(e.mbc.center.x);
        ys.push_back(e.mbc.center.y);
      }
      std::vector<uint8_t> keep(candidates.size());
      geom::batch::AnyHullCircleContains(xs.data(), ys.data(), xs.size(),
                                         hull.data(), hull_dist2.data(),
                                         hull.size(), keep.data());
      for (size_t k = 0; k < candidates.size(); ++k) {
        if (keep[k]) result.cr_objects.push_back(candidates[k].id);
      }
    } else {
      for (const rtree::LeafEntry& e : candidates) {
        bool keep = hull.empty();  // degenerate region: keep everything
        for (size_t m = 0; m < hull.size(); ++m) {
          if (geom::DistanceSquared(e.mbc.center, hull[m]) <= hull_dist2[m]) {
            keep = true;
            break;
          }
        }
        if (keep) result.cr_objects.push_back(e.id);
      }
    }
  }
  std::sort(result.cr_objects.begin(), result.cr_objects.end());
  return result;
}

}  // namespace core
}  // namespace uvd
