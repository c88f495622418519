#include "core/pnn.h"

#include <algorithm>
#include <limits>

#include "obs/trace_recorder.h"

namespace uvd {
namespace core {

namespace {

/// Verification of [14] over leaf tuples: keep entries with
/// dist_min <= d_minmax = min over entries of dist_max.
std::vector<rtree::LeafEntry> VerifyCandidates(std::vector<rtree::LeafEntry> tuples,
                                               const geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const rtree::LeafEntry& e : tuples) {
    d_minmax = std::min(d_minmax, e.mbc.DistMax(q));
  }
  tuples.erase(std::remove_if(tuples.begin(), tuples.end(),
                              [&](const rtree::LeafEntry& e) {
                                return e.mbc.DistMin(q) > d_minmax;
                              }),
               tuples.end());
  return tuples;
}

}  // namespace

Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnWithUvIndex(
    const UVIndex& index, const uncertain::ObjectStore& store, const geom::Point& q,
    const uncertain::QualificationOptions& options, Stats* stats) {
  std::vector<rtree::LeafEntry> tuples;
  {
    UVD_TRACE_SPAN("pnn", "index");
    auto retrieved = index.RetrieveCandidates(q);
    if (!retrieved.ok()) return retrieved.status();
    tuples = std::move(retrieved).value();
  }
  return EvaluatePnnFromCandidates(std::move(tuples), store, q, options, stats);
}

Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnFromCandidates(
    std::vector<rtree::LeafEntry> tuples, const uncertain::ObjectStore& store,
    const geom::Point& q, const uncertain::QualificationOptions& options,
    Stats* stats) {
  std::vector<rtree::LeafEntry> verified;
  {
    UVD_TRACE_SPAN("pnn", "index");
    verified = VerifyCandidates(std::move(tuples), q);
  }

  std::vector<uncertain::UncertainObject> objects;
  {
    UVD_TRACE_SPAN("pnn", "retrieval");
    objects.reserve(verified.size());
    for (const rtree::LeafEntry& e : verified) {
      auto obj = store.Fetch(e.ptr);
      if (!obj.ok()) return obj.status();
      objects.push_back(std::move(obj).value());
    }
  }

  std::vector<uncertain::PnnAnswer> answers;
  {
    UVD_TRACE_SPAN("pnn", "computation");
    std::vector<const uncertain::UncertainObject*> refs;
    refs.reserve(objects.size());
    for (const auto& o : objects) refs.push_back(&o);
    answers = uncertain::ComputeQualificationProbabilities(refs, q, options, stats);
  }
  return answers;
}

std::vector<int> AnswerIdsFromCandidates(std::vector<rtree::LeafEntry> tuples,
                                         const geom::Point& q) {
  std::vector<int> ids;
  for (const rtree::LeafEntry& e : VerifyCandidates(std::move(tuples), q)) {
    ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<int>> RetrievePnnAnswerIds(const UVIndex& index,
                                              const geom::Point& q, Stats* stats) {
  (void)stats;  // node visits and leaf reads are billed inside the index
  auto tuples = index.RetrieveCandidates(q);
  if (!tuples.ok()) return tuples.status();
  return AnswerIdsFromCandidates(std::move(tuples).value(), q);
}

}  // namespace core
}  // namespace uvd
