// PNN query evaluation through the UV-index (paper Sec. V-A): point
// location to the leaf containing q, read its page list, apply the
// d_minmax verification of [14] on the stored MBCs, fetch the surviving
// objects' pdfs and compute qualification probabilities.
#ifndef UVD_CORE_PNN_H_
#define UVD_CORE_PNN_H_

#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/uv_index.h"
#include "geom/point.h"
#include "rtree/pnn_baseline.h"
#include "uncertain/object_store.h"
#include "uncertain/qualification.h"

namespace uvd {
namespace core {

/// Full PNN through the UV-index, timed as the Fig. 6(c) spans
/// pnn/{index,retrieval,computation} (index traversal plus verification /
/// object retrieval / probability computation). Page I/O failures
/// propagate as error Status.
Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnWithUvIndex(
    const UVIndex& index, const uncertain::ObjectStore& store, const geom::Point& q,
    const uncertain::QualificationOptions& options = {}, Stats* stats = nullptr);

/// Verification + retrieval + probability phases over candidate tuples
/// already produced by the index phase (UVIndex::RetrieveCandidates or a
/// cached copy of its output). Split out so the query engine's cell cache
/// can sit in front of the index phase: identical tuples in, bitwise
/// identical answers out.
Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnFromCandidates(
    std::vector<rtree::LeafEntry> tuples, const uncertain::ObjectStore& store,
    const geom::Point& q, const uncertain::QualificationOptions& options = {},
    Stats* stats = nullptr);

/// Verification phase only over already-fetched candidate tuples: the
/// sorted ids of the answer objects (dist_min <= d_minmax).
std::vector<int> AnswerIdsFromCandidates(std::vector<rtree::LeafEntry> tuples,
                                         const geom::Point& q);

/// Index + verification phases only: the ids of the answer objects
/// (dist_min <= d_minmax), without probability computation. Useful for
/// set-level analyses and tests.
Result<std::vector<int>> RetrievePnnAnswerIds(const UVIndex& index,
                                              const geom::Point& q,
                                              Stats* stats = nullptr);

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_PNN_H_
