#include "rtree/traversal_session.h"

#include <algorithm>
#include <cmath>
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
  prev_valid_ = false;
  pool_radius_ = -1.0;
  last_window_ = 0.0;
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
    if (scratch_.status.ok()) scratch_.status = std::move(read);
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
  const std::vector<RTree::Node>& nodes = tree_.nodes();
  const std::vector<geom::Box>& leaf_mbrs = tree_.leaf_mbrs();
  // MBRs bound the full uncertainty circles, so MinDist(box) lower-bounds
  // every contained entry's dist_min — no qualifying entry can hide behind
  // a pruned box.
  std::vector<uint32_t>& stack = scratch_.stack;
  stack.clear();
  stack.push_back(tree_.root());
  while (!stack.empty()) {
    const RTree::Node& node = nodes[stack.back()];
    stack.pop_back();
    if (stats_ != nullptr) stats_->Add(Ticker::kRtreeNodeVisits);
    for (uint32_t c : node.children) {
      if (!node.leaf_children) {
        if (nodes[c].mbr.MinDist(center) <= radius) stack.push_back(c);
        continue;
      }
      if (leaf_mbrs[c].MinDist(center) > radius) continue;
      const std::vector<LeafEntry>* entries = GetLeaf(c);
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
    // get the exact key so selection sees the same doubles the tree's
    // k-NN computes.
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
  // exactly the entries RTree::KNearestByDistMin pops, in pop order.
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
  // canonical tie-break, so the pool selection never needs them.
  double bound = std::numeric_limits<double>::infinity();
  if (prev_valid_ && k <= prev_k_) {
    bound = prev_kth_ + geom::Distance(q, prev_q_);
  }
  if (std::isfinite(bound)) {
    // Shrink-rebuild when the ball is >2x oversized for current requests
    // (a one-off wide query must not leave every later scan paying its
    // 4x-area pool). `want` >= bound, so the shrunk ball still covers
    // this query. Right after a Morton jump `bound` is inflated, but then
    // coverage fails too and the tree k-NN below re-sizes from the fresh
    // exact k-th distance instead.
    const double want =
        std::max(bound, last_window_) * (1.0 + kPoolMargin);
    if (pool_radius_ > 2.0 * want) RebuildPool(q, want);
    if (PoolCovers(q, bound) && ServeFromPool(q, k, bound, out)) {
      last_window_ = std::max(last_window_ * 0.5, prev_kth_);
      return;
    }
  }
  // Pool miss (or defensive fallback): the tree's own best-first k-NN,
  // which clears `out` first.
  tree_.KNearestByDistMin(q, k, &scratch_, out);
  if (out->size() != static_cast<size_t>(k)) {
    prev_valid_ = false;  // partial result: no bound to carry forward
    return;
  }
  prev_valid_ = true;
  prev_q_ = q;
  prev_k_ = k;
  prev_kth_ = out->back().mbc.DistMin(q);  // the key the tree popped last
  // Full result: re-center the ball on the exact local k-th distance
  // (never the jump-inflated Lipschitz bound) so the following anchors
  // and this anchor's range query serve from flat scans again.
  RebuildPool(q, std::max(prev_kth_, last_window_) * (1.0 + kPoolMargin));
  last_window_ = std::max(last_window_ * 0.5, prev_kth_);
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
