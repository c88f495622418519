#include "core/uv_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "obs/trace_recorder.h"
#include "rtree/leaf_codec.h"

namespace uvd {
namespace core {

UVIndex::UVIndex(const geom::Box& domain, storage::PageManager* pm,
                 const UVIndexOptions& options, Stats* stats)
    : domain_(domain), pm_(pm), options_(options), stats_(stats) {
  UVD_CHECK_GT(options_.leaf_fanout, 0);
  UVD_CHECK_GE(options_.split_threshold, 0.0);
  UVD_CHECK_LE(options_.split_threshold, 1.0);
  UVD_CHECK(2 + static_cast<size_t>(options_.leaf_fanout) * rtree::kLeafEntryBytes <=
            pm_->page_size())
      << "leaf fanout too large for the page size";
  Node root;
  root.region = domain;
  nodes_.push_back(std::move(root));
  // The paper initializes nonleafnum to 1 (Sec. V-B "Framework").
  nonleaf_count_ = 1;
}

UVIndex::BuildArena UVIndex::MainArena() {
  BuildArena a;
  a.nodes = &nodes_;
  a.nonleaf_count = &nonleaf_count_;
  a.enforce_budget = true;
  a.events = nullptr;
  a.stats = stats_;
  return a;
}

bool UVIndex::CheckOverlapWith(const Member& m, const geom::Box& region,
                               Stats* stats, size_t* hint) const {
  if (stats != nullptr) stats->Add(Ticker::kOverlapChecks);
  // Algorithm 5: if any cr-object's outside region fully contains the grid
  // region, the UV-cell cannot overlap it (Lemma 4).
  const size_t n = m.cr_regions.size();
  if (n == 0) return true;
  // Batch 4-point kernel: the per-lane comparisons are exactly the scalar
  // scan's dist_min > dist_max tests, and "some outside region contains the
  // box" does not depend on scan order, so the decision is bitwise
  // identical; only the scan-length tickers and the pruner memo differ.
  if (options_.kernel_mode == geom::KernelMode::kBatch && !m.cr_soa.empty()) {
    const auto corners = region.Corners();
    double cx[4], cy[4], cdmin[4];
    for (int c = 0; c < 4; ++c) {
      cx[c] = corners[static_cast<size_t>(c)].x;
      cy[c] = corners[static_cast<size_t>(c)].y;
      cdmin[c] = m.region.DistMin(corners[static_cast<size_t>(c)]);
    }
    size_t evaluated = 0;
    const ptrdiff_t hit = geom::batch::FindContainingOutsideRegion(
        m.cr_soa, cx, cy, cdmin, &evaluated);
    if (stats != nullptr) {
      stats->Add(Ticker::kFourPointTests, evaluated);
      stats->Add(Ticker::kHyperbolaTests, 4 * evaluated);
    }
    if (hit >= 0) {
      *hint = static_cast<size_t>(hit);
      return false;
    }
    return true;
  }
  // Scan, trying the cr-object that pruned last time first: consecutive
  // checks cover adjacent regions, so it usually prunes again.
  if (*hint < n) {
    const UVEdge edge(m.region, m.cr_regions[*hint], /*j_id=*/-1);
    if (edge.RegionInOutside(region, stats)) return false;
  }
  for (size_t k = 0; k < n; ++k) {
    if (k == *hint) continue;
    const UVEdge edge(m.region, m.cr_regions[k], /*j_id=*/-1);
    if (edge.RegionInOutside(region, stats)) {
      *hint = k;
      return false;
    }
  }
  return true;
}

bool UVIndex::CheckOverlap(const Member& m, const geom::Box& region) const {
  size_t hint = 0;
  return CheckOverlapWith(m, region, stats_, &hint);
}

bool UVIndex::CheckOverlapArena(const BuildArena& a, uint32_t member_slot,
                                const geom::Box& region, size_t* hint) const {
  return CheckOverlapWith(members_[member_slot], region, a.stats, hint);
}

void UVIndex::EnsureSplitCache(const BuildArena& a, uint32_t node_idx) {
  Node& node = (*a.nodes)[node_idx];
  if (node.split_cache_valid) return;
  for (auto& list : node.split_cache) list.clear();
  UVD_DCHECK_EQ(node.member_hints.size(), node.member_slots.size());
  for (uint32_t pos = 0; pos < node.member_slots.size(); ++pos) {
    size_t hint = node.member_hints[pos];
    for (int k = 0; k < 4; ++k) {
      if (CheckOverlapArena(a, node.member_slots[pos], node.region.Quadrant(k),
                            &hint)) {
        node.split_cache[static_cast<size_t>(k)].push_back(pos);
      }
    }
    node.member_hints[pos] = static_cast<uint32_t>(hint);
  }
  node.split_cache_valid = true;
}

void UVIndex::AddToSplitCache(const BuildArena& a, uint32_t node_idx, uint32_t pos,
                              size_t* hint) {
  Node& node = (*a.nodes)[node_idx];
  if (!node.split_cache_valid) return;  // rebuilt lazily when needed
  for (int k = 0; k < 4; ++k) {
    if (CheckOverlapArena(a, node.member_slots[pos], node.region.Quadrant(k),
                          hint)) {
      node.split_cache[static_cast<size_t>(k)].push_back(pos);
    }
  }
}

UVIndex::SplitDecision UVIndex::CheckSplit(
    const BuildArena& a, uint32_t node_idx, uint32_t incoming_slot,
    size_t* incoming_hint, std::array<std::vector<uint32_t>, 4>* child_lists,
    std::array<std::vector<uint32_t>, 4>* child_hints) {
  std::vector<Node>& nodes = *a.nodes;
  // Steps 1-3: room left on the allocated pages.
  if (nodes[node_idx].member_slots.size() < LeafCapacity(nodes[node_idx])) {
    return SplitDecision::kNormal;
  }
  // Steps 4-5: non-leaf budget exhausted. Optimistic subtree builds skip
  // this (enforce_budget false) and let the stitch's event replay decide;
  // if the budget would have bound, the whole build reruns serially.
  if (a.enforce_budget && *a.nonleaf_count + 1 > options_.max_nonleaf) {
    return SplitDecision::kOverflow;
  }

  // Steps 7-15: distribute A = O_i union g.list over the four quarters.
  // The resident part of the distribution is memoized (split_cache) and
  // maintained incrementally by the insertion paths, so only the incoming
  // object is tested here (threading its leaf-local hint).
  EnsureSplitCache(a, node_idx);
  Node& node = nodes[node_idx];
  std::array<bool, 4> incoming{};
  for (int k = 0; k < 4; ++k) {
    incoming[static_cast<size_t>(k)] = CheckOverlapArena(
        a, incoming_slot, node.region.Quadrant(k), incoming_hint);
  }

  // Step 16: split fraction theta (denominator is |g.list|, the resident
  // count before the insertion, as in the paper).
  size_t min_child = SIZE_MAX;
  for (int k = 0; k < 4; ++k) {
    min_child = std::min(min_child, node.split_cache[static_cast<size_t>(k)].size() +
                                        (incoming[static_cast<size_t>(k)] ? 1 : 0));
  }
  const double theta =
      static_cast<double>(min_child) / static_cast<double>(node.member_slots.size());
  if (theta >= options_.split_threshold) return SplitDecision::kOverflow;

  // SPLIT: translate the cached POSITION lists into (slot, hint) pairs —
  // each resident's current hint forks into every child it joins — append
  // the incoming object with its evolved hint, and drop the cache.
  for (int k = 0; k < 4; ++k) {
    const std::vector<uint32_t>& cached = node.split_cache[static_cast<size_t>(k)];
    std::vector<uint32_t>& slots = (*child_lists)[static_cast<size_t>(k)];
    std::vector<uint32_t>& hints = (*child_hints)[static_cast<size_t>(k)];
    slots.reserve(cached.size() + 1);
    hints.reserve(cached.size() + 1);
    for (uint32_t pos : cached) {
      slots.push_back(node.member_slots[pos]);
      hints.push_back(node.member_hints[pos]);
    }
    if (incoming[static_cast<size_t>(k)]) {
      slots.push_back(incoming_slot);
      hints.push_back(static_cast<uint32_t>(*incoming_hint));
    }
    node.split_cache[static_cast<size_t>(k)].clear();
  }
  node.split_cache_valid = false;
  return SplitDecision::kSplit;
}

void UVIndex::InsertInto(const BuildArena& a, uint32_t node_idx,
                         uint32_t member_slot) {
  std::vector<Node>& nodes = *a.nodes;
  // Algorithm 3 Step 1. A fresh hint per gate check: descent checks are
  // hint-independent, which is what lets routed parallel insertion replay
  // the serial scan lengths (see uv_index.h).
  {
    size_t gate_hint = 0;
    if (!CheckOverlapArena(a, member_slot, nodes[node_idx].region, &gate_hint)) {
      return;
    }
  }

  if (!nodes[node_idx].is_leaf) {
    // Steps 2-5: recurse into all four children.
    const std::array<uint32_t, 4> children = nodes[node_idx].children;
    for (uint32_t child : children) InsertInto(a, child, member_slot);
    return;
  }

  // Leaf operations thread one evolving hint for the incoming member —
  // from CheckSplit's quadrant tests through AddToSplitCache — and store
  // the final value as the member's residency hint in this leaf.
  size_t hint = 0;
  std::array<std::vector<uint32_t>, 4> child_lists;
  std::array<std::vector<uint32_t>, 4> child_hints;
  switch (CheckSplit(a, node_idx, member_slot, &hint, &child_lists, &child_hints)) {
    case SplitDecision::kNormal:
      nodes[node_idx].member_slots.push_back(member_slot);
      AddToSplitCache(a, node_idx,
                      static_cast<uint32_t>(nodes[node_idx].member_slots.size() - 1),
                      &hint);
      nodes[node_idx].member_hints.push_back(static_cast<uint32_t>(hint));
      break;
    case SplitDecision::kOverflow:
      nodes[node_idx].num_pages += 1;  // Step 13: allocate a new page
      nodes[node_idx].member_slots.push_back(member_slot);
      AddToSplitCache(a, node_idx,
                      static_cast<uint32_t>(nodes[node_idx].member_slots.size() - 1),
                      &hint);
      nodes[node_idx].member_hints.push_back(static_cast<uint32_t>(hint));
      break;
    case SplitDecision::kSplit: {
      // Steps 16-22: the node becomes a non-leaf; CheckSplit already
      // distributed the members (incoming one included) into the quarters.
      // The four quarters occupy consecutive arena slots — the stitch's
      // renumbering relies on that (SplitEvent::first_child).
      if (a.events != nullptr) {
        a.events->push_back(
            {a.order_key, static_cast<uint32_t>(nodes.size())});
      }
      std::array<uint32_t, 4> child_idx{};
      for (int k = 0; k < 4; ++k) {
        Node child;
        child.region = nodes[node_idx].region.Quadrant(k);
        child.member_slots = std::move(child_lists[static_cast<size_t>(k)]);
        child.member_hints = std::move(child_hints[static_cast<size_t>(k)]);
        child.num_pages = std::max<size_t>(
            1, (child.member_slots.size() + static_cast<size_t>(options_.leaf_fanout) - 1) /
                   static_cast<size_t>(options_.leaf_fanout));
        nodes.push_back(std::move(child));
        child_idx[static_cast<size_t>(k)] = static_cast<uint32_t>(nodes.size() - 1);
      }
      Node& parent = nodes[node_idx];  // re-fetch: vector may have grown
      parent.is_leaf = false;
      parent.children = child_idx;
      parent.member_slots.clear();
      parent.member_slots.shrink_to_fit();
      parent.member_hints.clear();
      parent.member_hints.shrink_to_fit();
      parent.num_pages = 0;
      ++*a.nonleaf_count;
      break;
    }
  }
}

Status UVIndex::InsertObject(const geom::Circle& region, int id,
                             uncertain::ObjectPtr ptr,
                             std::vector<geom::Circle> cr_regions) {
  if (finalized_) {
    return Status::InvalidArgument("index already finalized");
  }
  if (!options_.accept_border_objects && !domain_.Contains(region.center)) {
    return Status::InvalidArgument("object center outside the domain");
  }
  members_.push_back(MakeMember(region, id, ptr, std::move(cr_regions)));
  const BuildArena a = MainArena();
  InsertInto(a, root(), static_cast<uint32_t>(members_.size() - 1));
  return Status::OK();
}

UVIndex::Member UVIndex::MakeMember(const geom::Circle& region, int id,
                                    uncertain::ObjectPtr ptr,
                                    std::vector<geom::Circle> cr_regions) const {
  Member member{region, id, ptr, std::move(cr_regions), {}};
  if (options_.kernel_mode == geom::KernelMode::kBatch) {
    member.cr_soa.Assign(member.cr_regions);
  }
  return member;
}

std::vector<uint32_t> UVIndex::ComputeFrontier(int max_depth) const {
  std::vector<uint32_t> frontier;
  // Pre-order, children 0..3 — the serial descent's visit order, so the
  // frontier index doubles as the event-merge tie-break rank.
  const std::function<void(uint32_t, int)> visit = [&](uint32_t idx, int depth) {
    const Node& node = nodes_[idx];
    if (node.is_leaf || depth >= max_depth) {
      frontier.push_back(idx);
      return;
    }
    for (uint32_t child : node.children) visit(child, depth + 1);
  };
  visit(root(), 0);
  return frontier;
}

Status UVIndex::InsertObjectsPartitioned(std::vector<BulkInsertItem> items,
                                         ThreadPool* pool,
                                         const PartitionedInsertOptions& options,
                                         PartitionedInsertReport* report) {
  if (finalized_) {
    return Status::InvalidArgument("index already finalized");
  }
  if (!members_.empty() || nodes_.size() != 1 || !nodes_[0].is_leaf) {
    return Status::InvalidArgument(
        "partitioned insertion requires a fresh (empty) index");
  }
  const size_t n = items.size();
  for (const BulkInsertItem& item : items) {
    if (!options_.accept_border_objects && !domain_.Contains(item.region.center)) {
      return Status::InvalidArgument("object center outside the domain");
    }
  }

  PartitionedInsertReport rep;
  rep.total_objects = n;
  const int workers = pool == nullptr ? 1 : std::max(1, options.threads);

  // Snapshot for the budget-overflow fallback: the serial rebuild must
  // leave the tickers as if only it had run (the exactness contract
  // above), so the prefix/route/subtree ticks are unwound by restoring
  // this and never merging the discarded shards.
  Stats stats_before_build;
  if (stats_ != nullptr) stats_before_build = *stats_;
  const int max_depth = std::min(3, std::max(1, options.max_depth));
  // The prefix stops once the frontier offers two subtrees per worker (at
  // least 4). 4^max_depth caps what the frontier can ever reach; without
  // the clamp a shallow max_depth would chase an unreachable target and
  // serialize the whole build into the prefix, as would a skewed dataset
  // whose scaffold never fills out — hence the item cap.
  const int target_subtrees = std::min(1 << (2 * max_depth), std::max(4, 2 * workers));
  const size_t prefix_cap = 16u * static_cast<size_t>(options_.leaf_fanout);

  // Phase 0 — materialize every member record up front. MakeMember is a
  // pure function of the item (it never looks at the resident set), so
  // the fan-out is invisible in the result. Workers share only the atomic
  // claim cursor and write disjoint members_ slots; no mutex, hence
  // nothing for the thread-safety analysis to guard here
  // (docs/STATIC_ANALYSIS.md, "Phase-disciplined structures").
  {
    UVD_TRACE_SPAN("build", "stage2_member");
    members_.resize(n);
    std::atomic<size_t> next{0};
    constexpr size_t kBlock = 16;
    RunWorkers(pool, workers, [&](int) {
      for (;;) {
        const size_t begin = next.fetch_add(kBlock, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t end = std::min(n, begin + kBlock);
        for (size_t i = begin; i < end; ++i) {
          members_[i] = MakeMember(items[i].region, items[i].id, items[i].ptr,
                                   std::move(items[i].cr_regions));
        }
      }
    });
    // Only the moved-from item shells are left; release them now.
    std::vector<BulkInsertItem>().swap(items);
  }

  // Phase 1 — serial prefix: the exact serial algorithm, one item at a
  // time, until the scaffold above the partition frontier exists (or the
  // input / prefix budget runs out). Identical to the serial build by
  // construction; with a single worker the "prefix" is simply the whole
  // build.
  BuildArena main_arena = MainArena();
  size_t p = 0;
  {
    UVD_TRACE_SPAN("build", "stage2_prefix");
    if (workers <= 1) {
      for (; p < n; ++p) InsertInto(main_arena, root(), static_cast<uint32_t>(p));
    } else {
      int frontier_size = 1;
      int last_nonleaf = nonleaf_count_;
      while (p < n) {
        if (!nodes_[root()].is_leaf &&
            (frontier_size >= target_subtrees || p >= prefix_cap)) {
          break;
        }
        InsertInto(main_arena, root(), static_cast<uint32_t>(p));
        ++p;
        if (nonleaf_count_ != last_nonleaf) {
          last_nonleaf = nonleaf_count_;
          frontier_size = static_cast<int>(ComputeFrontier(max_depth).size());
        }
      }
    }
  }
  rep.prefix_objects = p;
  if (p >= n) {
    if (report != nullptr) *report = rep;
    return Status::OK();
  }

  // Phase 2 — route the remaining items through the scaffold: the same
  // CheckOverlap descent the serial insertion performs above the frontier,
  // emitting a frontier bitmask per item. Each item is routed by exactly
  // one worker with a fresh pruner memo, so the masks — and the tickers —
  // are independent of the worker count.
  const std::vector<uint32_t> frontier = ComputeFrontier(max_depth);
  const size_t num_subtrees = frontier.size();
  UVD_CHECK_LE(num_subtrees, 64u);
  rep.subtrees = static_cast<int>(num_subtrees);
  std::vector<int> rank_of(nodes_.size(), -1);
  for (size_t r = 0; r < num_subtrees; ++r) {
    rank_of[frontier[r]] = static_cast<int>(r);
  }
  std::vector<uint64_t> route(n - p, 0);
  std::vector<Stats> route_shards(static_cast<size_t>(workers));
  {
    UVD_TRACE_SPAN("build", "stage2_route");
    std::atomic<size_t> next{p};
    constexpr size_t kBlock = 16;
    RunWorkers(pool, workers, [&](int w) {
      Stats* shard = stats_ != nullptr ? &route_shards[static_cast<size_t>(w)] : nullptr;
      for (;;) {
        const size_t begin = next.fetch_add(kBlock, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t end = std::min(n, begin + kBlock);
        for (size_t i = begin; i < end; ++i) {
          const Member& m = members_[i];
          uint64_t mask = 0;
          uint32_t stack[128];
          int top = 0;
          stack[top++] = root();
          while (top > 0) {
            const uint32_t idx = stack[--top];
            // Fresh hint per check, matching the serial gate discipline —
            // this is what makes the routed scan lengths (and tickers)
            // identical to the serial descent's.
            size_t hint = 0;
            if (!CheckOverlapWith(m, nodes_[idx].region, shard, &hint)) continue;
            for (uint32_t child : nodes_[idx].children) {
              const int r = rank_of[child];
              if (r >= 0) {
                mask |= uint64_t{1} << r;
              } else {
                UVD_DCHECK_LT(top, 128);
                stack[top++] = child;
              }
            }
          }
          route[i - p] = mask;
        }
      }
    });
  }

  // Phase 3 — independent subtree builds. Each frontier node and its
  // existing descendants are extracted into a private arena; routed items
  // are inserted in order with split events logged against their item
  // position. The max_nonleaf budget is ignored here (enforced post hoc by
  // the replay below).
  struct SubtreeBuild {
    std::vector<Node> nodes;
    std::vector<uint32_t> orig_ids;  // arena-local -> global, prefix nodes
    std::vector<uint32_t> slots;     // routed item positions, ascending
    std::vector<SplitEvent> events;
    Stats stats;
    int local_nonleaf = 0;
  };
  std::vector<SubtreeBuild> subs(num_subtrees);
  for (size_t i = p; i < n; ++i) {
    uint64_t mask = route[i - p];
    while (mask != 0) {
      const int r = __builtin_ctzll(mask);
      mask &= mask - 1;
      subs[static_cast<size_t>(r)].slots.push_back(static_cast<uint32_t>(i));
    }
  }
  {
    UVD_TRACE_SPAN("build", "stage2_subtree");
    for (size_t s = 0; s < num_subtrees; ++s) {
      SubtreeBuild& st = subs[s];
      const std::function<uint32_t(uint32_t)> extract = [&](uint32_t gid) -> uint32_t {
        const uint32_t local = static_cast<uint32_t>(st.nodes.size());
        st.nodes.push_back(nodes_[gid]);
        st.orig_ids.push_back(gid);
        if (!nodes_[gid].is_leaf) {
          const std::array<uint32_t, 4> children = nodes_[gid].children;
          for (int k = 0; k < 4; ++k) {
            const uint32_t child_local = extract(children[static_cast<size_t>(k)]);
            st.nodes[local].children[static_cast<size_t>(k)] = child_local;
          }
        }
        return local;
      };
      extract(frontier[s]);
    }
    // Longest-queue-first claim order for balance on skewed routes.
    std::vector<size_t> order(num_subtrees);
    for (size_t s = 0; s < num_subtrees; ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (subs[a].slots.size() != subs[b].slots.size()) {
        return subs[a].slots.size() > subs[b].slots.size();
      }
      return a < b;
    });
    std::atomic<size_t> next{0};
    RunWorkers(pool, workers, [&](int) {
      UVD_TRACE_SPAN("build", "stage2_worker");
      // No pruner-hint scratch: descent gates use a fresh hint per check
      // and residency hints travel inside the extracted nodes
      // (Node::member_hints), so each subtree replays the serial hint
      // evolution verbatim whichever worker builds it.
      for (;;) {
        const size_t oi = next.fetch_add(1, std::memory_order_relaxed);
        if (oi >= order.size()) return;
        SubtreeBuild& st = subs[order[oi]];
        BuildArena arena;
        arena.nodes = &st.nodes;
        arena.nonleaf_count = &st.local_nonleaf;
        arena.enforce_budget = false;
        arena.events = &st.events;
        arena.stats = stats_ != nullptr ? &st.stats : nullptr;
        for (uint32_t slot : st.slots) {
          arena.order_key = static_cast<int>(slot);
          InsertInto(arena, 0, slot);
        }
      }
    });
  }

  // Phase 4 — canonical stitch. Merging the per-subtree event logs by
  // (item position, frontier rank) reproduces the serial build's node
  // creation order exactly: within one item's insertion the serial descent
  // reaches subtrees in frontier (root-DFS) order, and within a subtree
  // the arena's log order IS the recursion order. New nodes are numbered
  // in that merged order, so the node vector — and therefore Finalize's
  // page assignment and SerializeStructure's bytes — matches the serial
  // build. The replay also re-applies the global max_nonleaf budget the
  // optimistic builds skipped; if it would have bound, partitioning
  // changed a split decision somewhere, so the result is discarded and the
  // build reruns serially (exact by definition).
  {
    UVD_TRACE_SPAN("build", "stage2_stitch");
    std::vector<std::vector<uint32_t>> remap(num_subtrees);
    for (size_t s = 0; s < num_subtrees; ++s) {
      remap[s].assign(subs[s].nodes.size(), 0);
      std::copy(subs[s].orig_ids.begin(), subs[s].orig_ids.end(), remap[s].begin());
    }
    std::vector<size_t> cursor(num_subtrees, 0);
    uint32_t next_global = static_cast<uint32_t>(nodes_.size());
    int running_nonleaf = nonleaf_count_;
    bool budget_overflow = false;
    size_t merged = 0;
    for (;;) {
      int best = -1;
      for (size_t s = 0; s < num_subtrees; ++s) {
        if (cursor[s] >= subs[s].events.size()) continue;
        if (best < 0 ||
            subs[s].events[cursor[s]].order_key <
                subs[static_cast<size_t>(best)].events[cursor[static_cast<size_t>(best)]]
                    .order_key) {
          best = static_cast<int>(s);
        }
      }
      if (best < 0) break;
      if (running_nonleaf + 1 > options_.max_nonleaf) {
        budget_overflow = true;
        break;
      }
      ++running_nonleaf;
      ++merged;
      const size_t bs = static_cast<size_t>(best);
      const SplitEvent& ev = subs[bs].events[cursor[bs]++];
      for (uint32_t j = 0; j < 4; ++j) {
        remap[bs][ev.first_child + j] = next_global++;
      }
    }
    rep.parallel_splits = merged;

    if (budget_overflow) {
      // The serial build would have denied a split the optimistic phase
      // performed; everything downstream of that point may diverge.
      // Rebuild serially — the members are already materialized, so this
      // costs one serial stage 2, the same as not partitioning at all.
      // The discarded phases' ticks are unwound first (and the per-phase
      // shards below are never merged) so the counters come out exactly
      // as a serial build's.
      if (stats_ != nullptr) *stats_ = stats_before_build;
      // No pruner-memo reset needed: residency hints live in the nodes
      // being discarded here, so the rebuild's scan lengths — and
      // therefore even kHyperbolaTests / kFourPointTests — replay a pure
      // serial build exactly.
      nodes_.clear();
      Node root_node;
      root_node.region = domain_;
      nodes_.push_back(std::move(root_node));
      nonleaf_count_ = 1;
      BuildArena retry = MainArena();
      for (size_t i = 0; i < n; ++i) {
        InsertInto(retry, root(), static_cast<uint32_t>(i));
      }
      rep.serial_fallback = true;
    } else {
      std::vector<Node> old = std::move(nodes_);
      nodes_.clear();
      nodes_.resize(static_cast<size_t>(next_global));
      std::vector<char> in_subtree(old.size(), 0);
      for (const SubtreeBuild& st : subs) {
        for (uint32_t gid : st.orig_ids) in_subtree[gid] = 1;
      }
      for (uint32_t id = 0; id < old.size(); ++id) {
        if (in_subtree[id] == 0) nodes_[id] = std::move(old[id]);
      }
      for (size_t s = 0; s < num_subtrees; ++s) {
        for (size_t l = 0; l < subs[s].nodes.size(); ++l) {
          Node node = std::move(subs[s].nodes[l]);
          if (!node.is_leaf) {
            for (auto& child : node.children) child = remap[s][child];
          }
          nodes_[remap[s][l]] = std::move(node);
        }
      }
      nonleaf_count_ = running_nonleaf;
    }
  }

  if (stats_ != nullptr && !rep.serial_fallback) {
    for (const Stats& shard : route_shards) stats_->MergeFrom(shard);
    for (const SubtreeBuild& st : subs) stats_->MergeFrom(st.stats);
  }
  if (report != nullptr) *report = rep;
  return Status::OK();
}

Status UVIndex::Finalize() { return FinalizeWith(nullptr, 1); }

Status UVIndex::FinalizeWith(ThreadPool* pool, int threads) {
  if (finalized_) return Status::OK();
  const size_t per_page = static_cast<size_t>(options_.leaf_fanout);

  // Encodes one leaf's resident tuples onto its (already assigned) pages.
  const auto write_leaf = [&](Node& node, std::vector<rtree::LeafEntry>* tuples,
                              std::vector<uint8_t>* buf) -> Status {
    tuples->clear();
    tuples->reserve(node.member_slots.size());
    for (uint32_t slot : node.member_slots) {
      const Member& m = members_[slot];
      tuples->push_back({m.id, m.region, m.ptr});
    }
    UVD_DCHECK_LE(tuples->size(), LeafCapacity(node));
    for (size_t p = 0; p < node.num_pages; ++p) {
      const size_t begin = p * per_page;
      const size_t count =
          begin >= tuples->size() ? 0 : std::min(per_page, tuples->size() - begin);
      buf->clear();
      rtree::EncodeLeafEntries(tuples->data() + begin, count, buf);
      UVD_RETURN_NOT_OK(pm_->Write(node.pages[p], *buf));
    }
    return Status::OK();
  };

  // Pre-assign the page ids in node order (one contiguous run, the layout
  // a per-leaf Allocate loop would produce), then fan the encoding out.
  // Writes target distinct pre-allocated pages, which PageManager permits
  // concurrently; the page layout is bitwise-identical for every thread
  // count.
  std::vector<uint32_t> leaves;
  size_t total_pages = 0;
  for (uint32_t idx = 0; idx < nodes_.size(); ++idx) {
    if (!nodes_[idx].is_leaf) continue;
    leaves.push_back(idx);
    total_pages += nodes_[idx].num_pages;
  }
  UVD_ASSIGN_OR_RETURN(storage::PageId next_page, pm_->AllocateRun(total_pages));
  for (uint32_t leaf : leaves) {
    Node& node = nodes_[leaf];
    node.pages.reserve(node.num_pages);
    for (size_t p = 0; p < node.num_pages; ++p) node.pages.push_back(next_page++);
  }
  const int workers = pool == nullptr ? 1 : std::max(1, threads);
  std::atomic<size_t> cursor{0};
  std::vector<Status> worker_status(static_cast<size_t>(workers));
  RunWorkers(pool, workers, [&](int w) {
    std::vector<rtree::LeafEntry> tuples;
    std::vector<uint8_t> buf;
    for (;;) {
      const size_t li = cursor.fetch_add(1, std::memory_order_relaxed);
      if (li >= leaves.size()) return;
      const Status s = write_leaf(nodes_[leaves[li]], &tuples, &buf);
      if (!s.ok()) {
        worker_status[static_cast<size_t>(w)] = s;
        return;
      }
    }
  });
  for (const Status& s : worker_status) UVD_RETURN_NOT_OK(s);

  // Drop the construction caches; ids/regions stay for pattern analysis.
  for (Member& m : members_) {
    m.cr_regions.clear();
    m.cr_regions.shrink_to_fit();
  }
  for (Node& node : nodes_) {
    for (auto& list : node.split_cache) {
      list.clear();
      list.shrink_to_fit();
    }
    node.split_cache_valid = false;
    node.member_hints.clear();
    node.member_hints.shrink_to_fit();
  }
  finalized_ = true;
  return Status::OK();
}

Status UVIndex::InsertObjectLive(const geom::Circle& region, int id,
                                 uncertain::ObjectPtr ptr,
                                 std::vector<geom::Circle> cr_regions) {
  if (!finalized_) {
    return Status::InvalidArgument(
        "live insertion requires a finalized index; use InsertObject");
  }
  if (!options_.accept_border_objects && !domain_.Contains(region.center)) {
    return Status::InvalidArgument("object center outside the domain");
  }
  Member member = MakeMember(region, id, ptr, std::move(cr_regions));

  // Collect the overlapped leaves (no splits in live mode).
  std::vector<uint32_t> leaves;
  std::vector<uint32_t> stack = {root()};
  while (!stack.empty()) {
    const uint32_t idx = stack.back();
    stack.pop_back();
    if (!CheckOverlap(member, nodes_[idx].region)) continue;
    if (nodes_[idx].is_leaf) {
      leaves.push_back(idx);
    } else {
      for (uint32_t c : nodes_[idx].children) stack.push_back(c);
    }
  }

  // Allocate the overflow page of every full leaf before touching any
  // node, so a failed allocation leaves the index as it was.
  std::vector<storage::PageId> fresh_pages;
  for (uint32_t leaf : leaves) {
    if (nodes_[leaf].member_slots.size() == LeafCapacity(nodes_[leaf])) {
      UVD_ASSIGN_OR_RETURN(const storage::PageId page, pm_->Allocate());
      fresh_pages.push_back(page);
    }
  }
  members_.push_back(std::move(member));
  const uint32_t slot = static_cast<uint32_t>(members_.size() - 1);

  // Rewrites page `tail_index` of a leaf from its resident slots.
  const size_t per_page = static_cast<size_t>(options_.leaf_fanout);
  std::vector<uint8_t> buf;
  std::vector<rtree::LeafEntry> tail;
  const auto write_tail = [&](const Node& node, size_t tail_index) {
    tail.clear();
    for (size_t i = tail_index * per_page; i < node.member_slots.size(); ++i) {
      const Member& m = members_[node.member_slots[i]];
      tail.push_back({m.id, m.region, m.ptr});
    }
    buf.clear();
    rtree::EncodeLeafEntries(tail.data(), tail.size(), &buf);
    return pm_->Write(node.pages[tail_index], buf);
  };

  // Append the tuple to each leaf's page chain, rewriting only the tail
  // page (chaining the fresh one on overflow).
  std::vector<bool> grown(leaves.size(), false);
  size_t next_fresh = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    Node& node = nodes_[leaves[i]];
    const size_t count = node.member_slots.size();
    if (count == LeafCapacity(node)) {
      node.num_pages += 1;
      node.pages.push_back(fresh_pages[next_fresh++]);
      grown[i] = true;
    }
    node.member_slots.push_back(slot);
    const Status st = write_tail(node, count / per_page);
    if (st.ok()) continue;
    // Undo leaves [0, i], newest first: a grown leaf drops its fresh page
    // (its old pages were never rewritten); every other leaf written
    // before the failure gets its old tail page back. The index is then
    // as it was — unless a restoring write fails too, which leaves that
    // page holding the extra tuple (reopen the last checkpoint then).
    bool restored = true;
    for (size_t j = i + 1; j-- > 0;) {
      Node& undo = nodes_[leaves[j]];
      undo.member_slots.pop_back();
      if (grown[j]) {
        undo.num_pages -= 1;
        undo.pages.pop_back();
      } else if (j < i) {
        restored &= write_tail(undo, undo.member_slots.size() / per_page).ok();
      }
    }
    members_.pop_back();
    return restored ? st : Status::IOError(st.message() + "; restoring a leaf page failed too");
  }

  // Match Finalize(): drop the construction caches for the new member.
  members_[slot].cr_regions.clear();
  members_[slot].cr_regions.shrink_to_fit();
  return Status::OK();
}

uint32_t UVIndex::LocateLeaf(const geom::Point& q) const {
  uint32_t idx = root();
  while (!nodes_[idx].is_leaf) {
    if (stats_ != nullptr) stats_->Add(Ticker::kUvIndexNodeVisits);
    const Node& node = nodes_[idx];
    const geom::Point c = node.region.Center();
    const int k = (q.x >= c.x ? 1 : 0) + (q.y >= c.y ? 2 : 0);
    idx = node.children[static_cast<size_t>(k)];
  }
  return idx;
}

bool UVIndex::OwnsPoint(const geom::Point& q) const {
  return domain_.ContainsHalfOpen(q);
}

Result<uint32_t> UVIndex::LocateLeafChecked(const geom::Point& q) const {
  if (!finalized_) {
    return Status::Internal("index must be finalized before queries");
  }
  // Acceptance is the closed domain: ownership at interior boundaries is
  // half-open [min, max) — a cut-line point between two indexes tiling a
  // larger domain belongs to the upper/right index alone (OwnsPoint; the
  // >= descent in LocateLeaf treats interior leaf boundaries the same
  // way) — but the domain's own max edge has no upper neighbor, so it
  // stays closed and a probe exactly on it is answered by the max-edge
  // leaves instead of being dropped. Routers combine OwnsPoint with a
  // max-edge clamp, so cut-line routing yields no drops and no
  // double-answers (ShardedUVDiagram::ShardIndexForPoint).
  if (!domain_.Contains(q)) {
    return Status::InvalidArgument("query point outside the domain");
  }
  return LocateLeaf(q);
}

Result<std::vector<rtree::LeafEntry>> UVIndex::ReadLeafEntries(uint32_t leaf) const {
  std::vector<rtree::LeafEntry> out;
  std::vector<uint8_t> buf;
  for (storage::PageId page : nodes_[leaf].pages) {
    if (stats_ != nullptr) stats_->Add(Ticker::kUvIndexLeafReads);
    UVD_RETURN_NOT_OK(pm_->Read(page, &buf));
    rtree::DecodeLeafEntries(buf, &out);
  }
  return out;
}

Result<std::vector<rtree::LeafEntry>> UVIndex::RetrieveCandidates(
    const geom::Point& q) const {
  UVD_ASSIGN_OR_RETURN(const uint32_t leaf, LocateLeafChecked(q));
  return ReadLeafEntries(leaf);
}

size_t UVIndex::num_leaves() const {
  size_t n = 0;
  for (const Node& node : nodes_) n += node.is_leaf ? 1 : 0;
  return n;
}

size_t UVIndex::total_leaf_pages() const {
  size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf) n += node.num_pages;
  }
  return n;
}

int UVIndex::height() const {
  // Depth from the root region: each level halves the extent.
  int max_depth = 1;
  struct Item {
    uint32_t idx;
    int depth;
  };
  std::vector<Item> stack = {{root(), 1}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, item.depth);
    const Node& node = nodes_[item.idx];
    if (!node.is_leaf) {
      for (uint32_t c : node.children) stack.push_back({c, item.depth + 1});
    }
  }
  return max_depth;
}

size_t UVIndex::LeafObjectCount(uint32_t node_index) const {
  UVD_DCHECK(nodes_[node_index].is_leaf);
  return nodes_[node_index].member_slots.size();
}

bool UvCellMayOverlap(const geom::Circle& region,
                      const std::vector<geom::Circle>& cr_regions,
                      const geom::Box& box, Stats* stats) {
  if (stats != nullptr) stats->Add(Ticker::kOverlapChecks);
  // Same Algorithm 5 logic as UVIndex::CheckOverlap, minus the per-member
  // memoization: the cell cannot overlap `box` iff some cr-object's convex
  // outside region contains it (4-point corner test). Monotone under box
  // containment — if it reports "no overlap" for a shard box, it would for
  // every leaf inside that box too — which is what makes shard-border
  // registration by this test conservative (Lemma 4 end to end).
  for (const geom::Circle& cr : cr_regions) {
    if (UVEdge(region, cr, /*j_id=*/-1).RegionInOutside(box, stats)) return false;
  }
  return true;
}

std::vector<int> UVIndex::LeafObjectIds(uint32_t node_index) const {
  UVD_DCHECK(nodes_[node_index].is_leaf);
  std::vector<int> ids;
  ids.reserve(nodes_[node_index].member_slots.size());
  for (uint32_t slot : nodes_[node_index].member_slots) {
    ids.push_back(members_[slot].id);
  }
  return ids;
}

}  // namespace core
}  // namespace uvd
