// Branch-and-prune PNN evaluation on the R-tree — the baseline of [14]
// that the paper compares the UV-index against (Sec. I, Sec. VI). The
// search maintains d_minmax (the smallest max-distance seen so far) and
// prunes subtrees whose MINDIST exceeds it; all surviving leaf pages are
// read, which is exactly the I/O cost the paper attributes to the R-tree.
#ifndef UVD_RTREE_PNN_BASELINE_H_
#define UVD_RTREE_PNN_BASELINE_H_

#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "geom/point.h"
#include "rtree/rtree.h"
#include "uncertain/object_store.h"
#include "uncertain/qualification.h"

namespace uvd {
namespace rtree {

/// Result of the index phase: candidate tuples and the verification bound.
struct PnnRetrieval {
  std::vector<LeafEntry> candidates;  ///< dist_min <= d_minmax
  double d_minmax = 0.0;
};

/// Traversal strategies for the R-tree baseline.
enum class BaselineTraversal {
  /// Faithful to [14] as characterized by the paper ("multiple traversals
  /// over the R-tree, resulting in a high I/O cost"): a first traversal
  /// establishes d_minmax from object MBCs, a second collects every object
  /// with dist_min <= d_minmax.
  kTwoPhase,
  /// Single best-first pass; d_minmax tightened at leaf entries only.
  kBestFirst,
  /// Best-first pass additionally tightening d_minmax with node-level
  /// MAXDIST before descending (modern improvement; ablation).
  kBestFirstNodeTightened,
};

/// Baseline variants (ablation bench: bench_ablation_baseline).
struct PnnBaselineOptions {
  BaselineTraversal traversal = BaselineTraversal::kTwoPhase;
};

/// Index phase only: retrieve all answer-object candidates via
/// branch-and-prune. Page I/O failures propagate as error Status. The
/// walk covers the packed tree only: a tree with a non-empty tail()
/// yields InvalidArgument.
Result<PnnRetrieval> RetrievePnnCandidates(const RTree& tree, const geom::Point& q,
                                           Stats* stats = nullptr,
                                           const PnnBaselineOptions& options = {});

/// Full PNN: retrieval + object fetch + numerical integration, timed as
/// the Fig. 6(c) spans rtree_pnn/{index,retrieval,computation}. Any page
/// I/O failure propagates (a dropped candidate would silently corrupt
/// the probabilities).
Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnWithRtree(
    const RTree& tree, const uncertain::ObjectStore& store, const geom::Point& q,
    const uncertain::QualificationOptions& options = {}, Stats* stats = nullptr,
    const PnnBaselineOptions& baseline = {});

}  // namespace rtree
}  // namespace uvd

#endif  // UVD_RTREE_PNN_BASELINE_H_
