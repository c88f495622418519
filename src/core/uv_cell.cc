#include "core/uv_cell.h"

#include <cmath>

#include "common/logging.h"

namespace uvd {
namespace core {

void UVCell::SubtractOutsideRegions(const geom::Circle* others, const int* ids,
                                    size_t n) {
  geom::batch::ConstraintPrefilter pre;
  geom::batch::BuildConstraintPrefilter(anchor_, others, n, &pre);
  // The envelope's max vertex distance only shrinks under insertion, so the
  // cached bound stays valid between refreshes; refresh after every
  // successful insert (the envelope may have tightened a lot).
  double max_d = envelope_.MaxVertexDistance();
  for (size_t j = 0; j < n; ++j) {
    // Vacuous constraints (overlapping regions, Sec. III-C) never touch the
    // envelope; neither can a constraint whose minimum distance exceeds the
    // current envelope everywhere.
    if (pre.vacuous[j]) continue;
    if (std::isfinite(max_d) &&
        geom::batch::PrefilterSkips(pre.min_rho[j], max_d)) {
      continue;
    }
    if (SubtractOutsideRegion(others[j], ids[j])) {
      max_d = envelope_.MaxVertexDistance();
    }
  }
}

namespace {

/// Gathers the contiguous region/id arrays the batch subtraction needs.
struct CandidateGather {
  std::vector<geom::Circle> regions;
  std::vector<int> ids;

  void Reserve(size_t n) {
    regions.reserve(n);
    ids.reserve(n);
  }
  void Add(const uncertain::UncertainObject& o) {
    regions.push_back(o.region());
    ids.push_back(o.id());
  }
};

}  // namespace

UVCell BuildExactUvCell(const std::vector<uncertain::UncertainObject>& objects,
                        size_t index, const geom::Box& domain, Stats* stats,
                        geom::KernelMode kernel) {
  UVD_CHECK_LT(index, objects.size());
  const uncertain::UncertainObject& anchor = objects[index];
  UVCell cell(anchor.region(), anchor.id(), domain, stats);
  if (kernel == geom::KernelMode::kBatch) {
    CandidateGather g;
    g.Reserve(objects.size() - 1);
    for (size_t j = 0; j < objects.size(); ++j) {
      if (j == index) continue;
      g.Add(objects[j]);
    }
    cell.SubtractOutsideRegions(g.regions.data(), g.ids.data(), g.regions.size());
    return cell;
  }
  for (size_t j = 0; j < objects.size(); ++j) {
    if (j == index) continue;
    cell.SubtractOutsideRegion(objects[j].region(), objects[j].id());
  }
  return cell;
}

UVCell BuildUvCellFromCandidates(const std::vector<uncertain::UncertainObject>& objects,
                                 size_t index, const std::vector<int>& candidate_ids,
                                 const geom::Box& domain, Stats* stats,
                                 geom::KernelMode kernel) {
  UVD_CHECK_LT(index, objects.size());
  const uncertain::UncertainObject& anchor = objects[index];
  UVCell cell(anchor.region(), anchor.id(), domain, stats);
  if (kernel == geom::KernelMode::kBatch) {
    CandidateGather g;
    g.Reserve(candidate_ids.size());
    for (int id : candidate_ids) {
      if (id == anchor.id()) continue;
      UVD_DCHECK_GE(id, 0);
      UVD_DCHECK_LT(static_cast<size_t>(id), objects.size());
      const uncertain::UncertainObject& other = objects[static_cast<size_t>(id)];
      UVD_DCHECK_EQ(other.id(), id) << "objects must be stored in id order";
      g.Add(other);
    }
    cell.SubtractOutsideRegions(g.regions.data(), g.ids.data(), g.regions.size());
    return cell;
  }
  for (int id : candidate_ids) {
    if (id == anchor.id()) continue;
    UVD_DCHECK_GE(id, 0);
    UVD_DCHECK_LT(static_cast<size_t>(id), objects.size());
    const uncertain::UncertainObject& other = objects[static_cast<size_t>(id)];
    UVD_DCHECK_EQ(other.id(), id) << "objects must be stored in id order";
    cell.SubtractOutsideRegion(other.region(), other.id());
  }
  return cell;
}

}  // namespace core
}  // namespace uvd
