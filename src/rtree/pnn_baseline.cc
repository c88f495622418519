#include "rtree/pnn_baseline.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/trace_recorder.h"

namespace uvd {
namespace rtree {

namespace {

/// Single best-first traversal (kBestFirst / kBestFirstNodeTightened).
Result<PnnRetrieval> BestFirstRetrieve(const RTree& tree, const geom::Point& q,
                                       Stats* stats, bool tighten_with_node_maxdist) {
  enum class Kind { kNode, kLeafPage };
  struct Item {
    double key;  // MINDIST lower bound
    Kind kind;
    uint32_t index;
    bool operator>(const Item& o) const { return key > o.key; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.push({0.0, Kind::kNode, tree.root()});

  PnnRetrieval out;
  double d_minmax = std::numeric_limits<double>::infinity();
  std::vector<LeafEntry> page_entries;
  while (!pq.empty()) {
    const Item item = pq.top();
    pq.pop();
    // Best-first: keys are non-decreasing, so the first unpromising item
    // ends the search.
    if (item.key > d_minmax) break;
    if (item.kind == Kind::kNode) {
      if (stats != nullptr) stats->Add(Ticker::kRtreeNodeVisits);
      const RTree::Node& node = tree.nodes()[item.index];
      for (uint32_t c : node.children) {
        const geom::Box& mbr =
            node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
        if (tighten_with_node_maxdist) {
          // Every object in the subtree has dist_max <= MAXDIST(mbr), so
          // the bound can be tightened before descending.
          d_minmax = std::min(d_minmax, mbr.MaxDist(q));
        }
        const double mindist = mbr.MinDist(q);
        if (mindist <= d_minmax) {
          pq.push({mindist, node.leaf_children ? Kind::kLeafPage : Kind::kNode, c});
        }
      }
    } else {
      UVD_RETURN_NOT_OK(tree.ReadLeaf(tree.leaf_pages()[item.index], &page_entries));
      for (const LeafEntry& e : page_entries) {
        d_minmax = std::min(d_minmax, e.mbc.DistMax(q));
        if (e.mbc.DistMin(q) <= d_minmax) out.candidates.push_back(e);
      }
    }
  }
  // Final verification pass: the bound kept shrinking while candidates were
  // collected.
  out.d_minmax = d_minmax;
  out.candidates.erase(
      std::remove_if(out.candidates.begin(), out.candidates.end(),
                     [&](const LeafEntry& e) { return e.mbc.DistMin(q) > d_minmax; }),
      out.candidates.end());
  return out;
}

/// Faithful [14]-style evaluation: traversal 1 establishes the bound
/// d_minmax = min over objects of dist_max(O, q); traversal 2 re-walks the
/// tree and reads every leaf that may hold an object with
/// dist_min <= d_minmax. The double leaf touch is exactly the I/O overhead
/// the paper attributes to the R-tree (Sec. I, Sec. II).
Result<PnnRetrieval> TwoPhaseRetrieve(const RTree& tree, const geom::Point& q,
                                      Stats* stats) {
  // Phase 1: best-first by MINDIST until the next node cannot contain an
  // object beating the current bound.
  enum class Kind { kNode, kLeafPage };
  struct Item {
    double key;
    Kind kind;
    uint32_t index;
    bool operator>(const Item& o) const { return key > o.key; }
  };
  double d_minmax = std::numeric_limits<double>::infinity();
  std::vector<LeafEntry> page_entries;
  {
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.push({0.0, Kind::kNode, tree.root()});
    while (!pq.empty()) {
      const Item item = pq.top();
      pq.pop();
      if (item.key > d_minmax) break;
      if (item.kind == Kind::kNode) {
        if (stats != nullptr) stats->Add(Ticker::kRtreeNodeVisits);
        const RTree::Node& node = tree.nodes()[item.index];
        for (uint32_t c : node.children) {
          const geom::Box& mbr =
              node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
          const double mindist = mbr.MinDist(q);
          if (mindist <= d_minmax) {
            pq.push({mindist, node.leaf_children ? Kind::kLeafPage : Kind::kNode, c});
          }
        }
      } else {
        UVD_RETURN_NOT_OK(tree.ReadLeaf(tree.leaf_pages()[item.index], &page_entries));
        for (const LeafEntry& e : page_entries) {
          d_minmax = std::min(d_minmax, e.mbc.DistMax(q));
        }
      }
    }
  }

  // Phase 2: range traversal collecting objects with dist_min <= d_minmax.
  PnnRetrieval out;
  out.d_minmax = d_minmax;
  std::vector<uint32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const uint32_t idx = stack.back();
    stack.pop_back();
    if (stats != nullptr) stats->Add(Ticker::kRtreeNodeVisits);
    const RTree::Node& node = tree.nodes()[idx];
    for (uint32_t c : node.children) {
      const geom::Box& mbr =
          node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
      if (mbr.MinDist(q) > d_minmax) continue;
      if (node.leaf_children) {
        UVD_RETURN_NOT_OK(tree.ReadLeaf(tree.leaf_pages()[c], &page_entries));
        for (const LeafEntry& e : page_entries) {
          if (e.mbc.DistMin(q) <= d_minmax) out.candidates.push_back(e);
        }
      } else {
        stack.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace

Result<PnnRetrieval> RetrievePnnCandidates(const RTree& tree, const geom::Point& q,
                                           Stats* stats,
                                           const PnnBaselineOptions& options) {
  if (!tree.tail().empty()) {
    return Status::InvalidArgument("R-tree baseline needs a tree without a tail");
  }
  switch (options.traversal) {
    case BaselineTraversal::kTwoPhase:
      return TwoPhaseRetrieve(tree, q, stats);
    case BaselineTraversal::kBestFirst:
      return BestFirstRetrieve(tree, q, stats, /*tighten_with_node_maxdist=*/false);
    case BaselineTraversal::kBestFirstNodeTightened:
      return BestFirstRetrieve(tree, q, stats, /*tighten_with_node_maxdist=*/true);
  }
  return BestFirstRetrieve(tree, q, stats, false);
}

Result<std::vector<uncertain::PnnAnswer>> EvaluatePnnWithRtree(
    const RTree& tree, const uncertain::ObjectStore& store, const geom::Point& q,
    const uncertain::QualificationOptions& options, Stats* stats,
    const PnnBaselineOptions& baseline) {
  PnnRetrieval retrieval;
  {
    UVD_TRACE_SPAN("rtree_pnn", "index");
    auto r = RetrievePnnCandidates(tree, q, stats, baseline);
    if (!r.ok()) return r.status();
    retrieval = std::move(r).value();
  }

  std::vector<uncertain::UncertainObject> objects;
  {
    UVD_TRACE_SPAN("rtree_pnn", "retrieval");
    objects.reserve(retrieval.candidates.size());
    for (const LeafEntry& e : retrieval.candidates) {
      auto obj = store.Fetch(e.ptr);
      if (!obj.ok()) return obj.status();
      objects.push_back(std::move(obj).value());
    }
  }

  std::vector<uncertain::PnnAnswer> answers;
  {
    UVD_TRACE_SPAN("rtree_pnn", "computation");
    std::vector<const uncertain::UncertainObject*> refs;
    refs.reserve(objects.size());
    for (const auto& o : objects) refs.push_back(&o);
    answers = uncertain::ComputeQualificationProbabilities(refs, q, options, stats);
  }
  return answers;
}

}  // namespace rtree
}  // namespace uvd
