#include "rtree/traversal_session.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "obs/trace_recorder.h"

namespace uvd {
namespace rtree {

namespace {
/// Slack on the entry pool's radius beyond what the triggering query needs
/// (pool area grows with (1 + margin)^2). A work constant only: results
/// are identical for any value >= 0. Smaller margins rebuild the pool
/// more often, larger ones scan more per anchor; 0.5 and 2.0 were never
/// measured faster than 1.0 on stage 1 (docs/TUNING.md).
constexpr double kPoolMargin = 1.0;
}  // namespace

const char* TraversalModeName(TraversalMode m) {
  switch (m) {
    case TraversalMode::kPerAnchor:
      return "per_anchor";
    case TraversalMode::kShared:
      return "shared";
  }
  return "unknown";
}

TraversalSession::TraversalSession(const RTree& tree,
                                   const TraversalSessionOptions& options,
                                   Stats* stats)
    : tree_(tree),
      stats_(stats),
      memo_(std::max<size_t>(1, options.leaf_memo_capacity)) {
  UVD_CHECK(tree.tail().empty()) << "a session walks the packed tree only";
  Reset();
}

void TraversalSession::Reset() {
  cut_.clear();
  cut_.push_back({tree_.root(), kNode});
  cut_dead_ = 0;
  prev_valid_ = false;
  pool_radius_ = -1.0;
  last_window_ = 0.0;
}

void TraversalSession::CompactCut() {
  size_t w = 0;
  for (size_t p = 0; p < cut_.size(); ++p) {
    if (cut_[p].kind == kDead) continue;
    cut_[w++] = cut_[p];
  }
  cut_.resize(w);
  cut_dead_ = 0;
}

size_t TraversalSession::ExpandCutNode(size_t pos) {
  const uint32_t idx = cut_[pos].index;
  cut_[pos].kind = kDead;
  ++cut_dead_;
  if (stats_ != nullptr) stats_->Add(Ticker::kRtreeNodeVisits);
  const RTree::Node& node = tree_.nodes()[idx];
  const size_t first = cut_.size();
  const uint8_t child_kind = node.leaf_children ? kLeafPage : kNode;
  for (uint32_t c : node.children) cut_.push_back({c, child_kind});
  return first;
}

const std::vector<LeafEntry>* TraversalSession::GetLeaf(uint32_t leaf) {
  if (const auto* hit = memo_.Lookup(leaf).value) {
    ++memo_hits_;
    if (stats_ != nullptr) stats_->Add(Ticker::kLeafMemoHits);
    return hit;
  }

  ++memo_misses_;
  if (stats_ != nullptr) stats_->Add(Ticker::kLeafMemoMisses);
  std::vector<LeafEntry> entries;
  Status read;
  {
    UVD_TRACE_SPAN("rtree", "decode");
    read = tree_.ReadLeaf(tree_.leaf_pages()[leaf], &entries);
  }
  if (!read.ok()) {
    if (status_.ok()) status_ = std::move(read);
    return nullptr;
  }
  return memo_.Insert(leaf, std::move(entries)).first;
}

bool TraversalSession::PoolCovers(const geom::Point& q, double needed) const {
  if (pool_radius_ < 0.0 || !std::isfinite(needed)) return false;
  // Transfer bound: dist_min(e, pool_center) <= dist_min(e, q) +
  // |q - pool_center| <= needed + |q - pool_center| for every entry a
  // radius-`needed` query around q can return. The 1e-9 relative guard
  // band dwarfs the few-ulp error of the floating-point evaluation, so a
  // "covered" verdict is always truly covered.
  return (needed + geom::Distance(q, pool_center_)) * (1.0 + 1e-9) <=
         pool_radius_;
}

void TraversalSession::RebuildPool(const geom::Point& center, double radius) {
  ++pool_rebuilds_;
  pool_.clear();
  pool_center_ = center;
  pool_radius_ = radius;
  if (cut_dead_ > cut_.size() / 2) CompactCut();
  const std::vector<RTree::Node>& nodes = tree_.nodes();
  const std::vector<geom::Box>& leaf_mbrs = tree_.leaf_mbrs();
  // Index loop: qualifying nodes expand in place (children appended past
  // the current end are visited later in this same sweep). MBRs bound the
  // full uncertainty circles, so MinDist(box) lower-bounds every contained
  // entry's dist_min — no qualifying entry can hide behind a pruned box.
  for (size_t p = 0; p < cut_.size(); ++p) {
    const CutElement e = cut_[p];  // copy: cut_ may reallocate below
    if (e.kind == kDead) continue;
    if (e.kind == kNode) {
      if (nodes[e.index].mbr.MinDist(center) > radius) continue;
      ExpandCutNode(p);
    } else {
      if (leaf_mbrs[e.index].MinDist(center) > radius) continue;
      const std::vector<LeafEntry>* entries = GetLeaf(e.index);
      if (entries == nullptr) continue;
      for (const LeafEntry& le : *entries) {
        // Squared-space dist_min(center) <= radius, with slack: the pool
        // may safely hold a few boundary extras (it is a superset
        // container; only the coverage LOWER bound matters), which buys
        // a sqrt-free rebuild.
        const double dx = center.x - le.mbc.center.x;
        const double dy = center.y - le.mbc.center.y;
        const double lim = radius + le.mbc.radius;
        if (dx * dx + dy * dy <= lim * lim * (1.0 + 1e-12)) {
          pool_.push_back(le);
        }
      }
    }
  }
}

bool TraversalSession::ServeFromPool(const geom::Point& q, int k, double bound,
                                     std::vector<LeafEntry>* out) {
  pool_cand_.clear();
  for (size_t i = 0; i < pool_.size(); ++i) {
    const LeafEntry& e = pool_[i];
    // Conservative square-space prefilter for dist_min <= bound (the
    // relative slack keeps borderline entries in past rounding); survivors
    // get the exact key so selection sees the same doubles the heap
    // traversal computes.
    const double dx = q.x - e.mbc.center.x;
    const double dy = q.y - e.mbc.center.y;
    const double lim = bound + e.mbc.radius;
    if (dx * dx + dy * dy > lim * lim * (1.0 + 1e-12)) continue;
    pool_cand_.push_back(
        {e.mbc.DistMin(q), e.id, static_cast<uint32_t>(i)});
  }
  if (pool_cand_.size() < static_cast<size_t>(k)) return false;
  // The k canonically smallest (key, id) — candidates are a superset of
  // every entry with key <= bound >= true k-th distance, so these are
  // exactly the entries the best-first traversal pops, in pop order.
  const auto canonical = [](const PoolCandidate& a, const PoolCandidate& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  };
  const auto kth = pool_cand_.begin() + (k - 1);
  std::nth_element(pool_cand_.begin(), kth, pool_cand_.end(), canonical);
  std::sort(pool_cand_.begin(), kth + 1, canonical);
  for (int i = 0; i < k; ++i) {
    out->push_back(pool_[pool_cand_[static_cast<size_t>(i)].pos]);
  }
  ++pool_serves_;
  prev_valid_ = true;
  prev_q_ = q;
  prev_k_ = k;
  prev_kth_ = kth->key;
  return true;
}

void TraversalSession::KNearest(const geom::Point& q, int k,
                                std::vector<LeafEntry>* out) {
  out->clear();
  if (k <= 0) return;

  // Previous-anchor bound: every dist_min moves by at most |q - prev_q|
  // (triangle inequality on the underlying point sets), so the k-th order
  // statistic does too; with k <= prev_k the current k-th distance is at
  // most B. Keys strictly above B rank after all k winners even under the
  // canonical tie-break, so neither the pool selection nor the heap ever
  // needs them.
  double bound = std::numeric_limits<double>::infinity();
  if (prev_valid_ && k <= prev_k_) {
    bound = prev_kth_ + geom::Distance(q, prev_q_);
  }
  if (std::isfinite(bound)) {
    // Shrink-rebuild when the ball is >2x oversized for current requests
    // (a one-off wide query must not leave every later scan paying its
    // 4x-area pool). `want` >= bound, so the shrunk ball still covers
    // this query. Right after a Morton jump `bound` is inflated, but then
    // coverage fails too and the heap path below re-sizes from the fresh
    // exact k-th distance instead.
    const double want =
        std::max(bound, last_window_) * (1.0 + kPoolMargin);
    if (pool_radius_ > 2.0 * want) RebuildPool(q, want);
    if (PoolCovers(q, bound) && ServeFromPool(q, k, bound, out)) {
      last_window_ = std::max(last_window_ * 0.5, prev_kth_);
      return;
    }
    out->clear();  // pool miss (or defensive fallback): answer via the heap
  }
  HeapKNearest(q, k, out);
  if (prev_valid_) {
    // Full result: re-center the ball on the exact local k-th distance
    // (never the jump-inflated Lipschitz bound) so the following anchors
    // and this anchor's range query serve from flat scans again.
    RebuildPool(q, std::max(prev_kth_, last_window_) *
                       (1.0 + kPoolMargin));
    last_window_ = std::max(last_window_ * 0.5, prev_kth_);
  }
}

void TraversalSession::HeapKNearest(const geom::Point& q, int k,
                                    std::vector<LeafEntry>* out) {
  if (cut_dead_ > cut_.size() / 2) CompactCut();
  double bound = std::numeric_limits<double>::infinity();
  if (prev_valid_ && k <= prev_k_) {
    bound = prev_kth_ + geom::Distance(q, prev_q_);
  }

  const std::greater<HeapItem> worse;
  const std::vector<RTree::Node>& nodes = tree_.nodes();
  const std::vector<geom::Box>& leaf_mbrs = tree_.leaf_mbrs();
  heap_.clear();
  for (size_t p = 0; p < cut_.size(); ++p) {
    const CutElement& e = cut_[p];
    if (e.kind == kDead) continue;
    const double key = e.kind == kNode ? nodes[e.index].mbr.MinDist(q)
                                       : leaf_mbrs[e.index].MinDist(q);
    if (key > bound) continue;
    heap_.push_back({key, e.index, -1, static_cast<uint32_t>(p), e.kind});
  }
  std::make_heap(heap_.begin(), heap_.end(), worse);

  double last_key = 0.0;
  while (!heap_.empty() && out->size() < static_cast<size_t>(k)) {
    std::pop_heap(heap_.begin(), heap_.end(), worse);
    const HeapItem item = heap_.back();
    heap_.pop_back();
    switch (item.kind) {
      case kNode: {
        const size_t first = ExpandCutNode(item.pos);
        for (size_t p = first; p < cut_.size(); ++p) {
          const CutElement& e = cut_[p];
          const double key = e.kind == kNode ? nodes[e.index].mbr.MinDist(q)
                                             : leaf_mbrs[e.index].MinDist(q);
          if (key > bound) continue;
          heap_.push_back(
              {key, e.index, -1, static_cast<uint32_t>(p), e.kind});
          std::push_heap(heap_.begin(), heap_.end(), worse);
        }
        break;
      }
      case kLeafPage: {
        const std::vector<LeafEntry>* entries = GetLeaf(item.index);
        if (entries == nullptr) break;
        for (size_t pos = 0; pos < entries->size(); ++pos) {
          const double key = (*entries)[pos].mbc.DistMin(q);
          if (key > bound) continue;
          heap_.push_back({key, item.index, (*entries)[pos].id,
                           static_cast<uint32_t>(pos), kEntry});
          std::push_heap(heap_.begin(), heap_.end(), worse);
        }
        break;
      }
      default: {  // kEntry: resolve through the memo (re-decodes if evicted)
        const std::vector<LeafEntry>* entries = GetLeaf(item.index);
        if (entries == nullptr) break;
        out->push_back((*entries)[item.pos]);
        last_key = item.key;
        break;
      }
    }
  }

  if (out->size() == static_cast<size_t>(k)) {
    prev_valid_ = true;
    prev_q_ = q;
    prev_k_ = k;
    prev_kth_ = last_key;
  } else {
    prev_valid_ = false;  // partial result: no bound to carry forward
  }
}

void TraversalSession::CentersInRange(const geom::Point& center, double radius,
                                      std::vector<LeafEntry>* out) {
  out->clear();
  // A center within `radius` implies dist_min <= radius (dist_min only
  // subtracts the entry's own radius), so the dist_min ball covers every
  // qualifying entry and a flat pool scan returns the exact oracle set.
  const double want =
      std::max(radius, last_window_) * (1.0 + kPoolMargin);
  if (!PoolCovers(center, radius) || pool_radius_ > 2.0 * want) {
    RebuildPool(center, want);
  }
  last_window_ = std::max(last_window_ * 0.5, radius);
  ++pool_serves_;
  const double r2 = radius * radius * (1.0 + 1e-12);
  for (const LeafEntry& le : pool_) {
    // Conservative squared prefilter, then the oracle's exact comparison
    // for the borderline-included survivors — bit-identical keep set.
    const double dx = le.mbc.center.x - center.x;
    const double dy = le.mbc.center.y - center.y;
    if (dx * dx + dy * dy > r2) continue;
    if (geom::Distance(le.mbc.center, center) <= radius) {
      out->push_back(le);
    }
  }
}

}  // namespace rtree
}  // namespace uvd
