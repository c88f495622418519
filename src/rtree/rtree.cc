#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/trace_recorder.h"
#include "storage/record.h"

namespace uvd {
namespace rtree {

namespace {

// Sort-Tile-Recursive grouping of items (by their box centers) into groups
// of at most `capacity`, preserving spatial locality.
template <typename Item, typename GetBox>
std::vector<std::vector<Item>> StrPack(std::vector<Item> items, int capacity,
                                       const GetBox& get_box) {
  const size_t n = items.size();
  const size_t num_groups = (n + capacity - 1) / static_cast<size_t>(capacity);
  const size_t num_slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_groups))));
  const size_t slab_items = (n + num_slabs - 1) / num_slabs;

  std::sort(items.begin(), items.end(), [&](const Item& a, const Item& b) {
    return get_box(a).Center().x < get_box(b).Center().x;
  });

  std::vector<std::vector<Item>> groups;
  groups.reserve(num_groups);
  for (size_t s = 0; s * slab_items < n; ++s) {
    const size_t begin = s * slab_items;
    const size_t end = std::min(n, begin + slab_items);
    std::sort(items.begin() + static_cast<long>(begin),
              items.begin() + static_cast<long>(end),
              [&](const Item& a, const Item& b) {
                return get_box(a).Center().y < get_box(b).Center().y;
              });
    for (size_t i = begin; i < end; i += static_cast<size_t>(capacity)) {
      const size_t stop = std::min(end, i + static_cast<size_t>(capacity));
      groups.emplace_back(items.begin() + static_cast<long>(i),
                          items.begin() + static_cast<long>(stop));
    }
  }
  return groups;
}

}  // namespace

Result<RTree> RTree::BulkLoad(const std::vector<uncertain::UncertainObject>& objects,
                              const std::vector<uncertain::ObjectPtr>& ptrs,
                              storage::PageManager* pm, const RTreeOptions& options,
                              Stats* stats) {
  if (objects.size() != ptrs.size()) {
    return Status::InvalidArgument("objects/ptrs size mismatch");
  }
  if (objects.empty()) {
    return Status::InvalidArgument("cannot bulk load an empty tree");
  }
  if (options.fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  const size_t needed = 2 + static_cast<size_t>(options.fanout) * kLeafEntryBytes;
  if (needed > pm->page_size()) {
    return Status::InvalidArgument("fanout too large for the page size");
  }

  RTree tree;
  tree.pm_ = pm;
  tree.stats_ = stats;
  tree.num_objects_ = objects.size();

  // Level 0: pack leaf entries into disk pages.
  std::vector<LeafEntry> entries;
  entries.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    entries.push_back({objects[i].id(), objects[i].Mbc(), ptrs[i]});
  }
  auto leaf_groups = StrPack(std::move(entries), options.fanout,
                             [](const LeafEntry& e) { return e.mbc.Mbr(); });
  for (const auto& group : leaf_groups) {
    geom::Box mbr = geom::Box::Empty();
    for (const LeafEntry& e : group) mbr.ExpandToInclude(e.mbc.Mbr());
    std::vector<uint8_t> buf;
    EncodeLeafEntries(group.data(), group.size(), &buf);
    UVD_ASSIGN_OR_RETURN(const storage::PageId page, pm->Allocate());
    UVD_RETURN_NOT_OK(pm->Write(page, buf));
    tree.leaf_pages_.push_back(page);
    tree.leaf_mbrs_.push_back(mbr);
  }

  // Upper levels: STR over child boxes until one root remains.
  struct ChildRef {
    geom::Box mbr;
    uint32_t index;
  };
  std::vector<ChildRef> level;
  level.reserve(tree.leaf_pages_.size());
  for (uint32_t i = 0; i < tree.leaf_pages_.size(); ++i) {
    level.push_back({tree.leaf_mbrs_[i], i});
  }
  bool children_are_leaves = true;
  tree.height_ = 1;
  while (level.size() > 1 || children_are_leaves) {
    auto groups = StrPack(std::move(level), options.fanout,
                          [](const ChildRef& c) { return c.mbr; });
    std::vector<ChildRef> next;
    next.reserve(groups.size());
    for (const auto& group : groups) {
      Node node;
      node.leaf_children = children_are_leaves;
      geom::Box mbr = geom::Box::Empty();
      for (const ChildRef& c : group) {
        mbr.ExpandToInclude(c.mbr);
        node.children.push_back(c.index);
      }
      node.mbr = mbr;
      tree.nodes_.push_back(std::move(node));
      next.push_back({mbr, static_cast<uint32_t>(tree.nodes_.size() - 1)});
    }
    level = std::move(next);
    children_are_leaves = false;
    ++tree.height_;
    if (level.size() == 1) break;
  }
  tree.root_ = level.front().index;
  return tree;
}

Status RTree::ReadLeaf(storage::PageId page, std::vector<LeafEntry>* out) const {
  if (stats_ != nullptr) stats_->Add(Ticker::kRtreeLeafReads);
  std::vector<uint8_t> buf;
  UVD_RETURN_NOT_OK(pm_->Read(page, &buf));
  out->clear();
  DecodeLeafEntries(buf, out);
  return Status::OK();
}

bool RTree::ReadLeafInto(storage::PageId page, TraversalScratch* scratch) const {
  Status read;
  {
    UVD_TRACE_SPAN("rtree", "decode");
    read = ReadLeaf(page, &scratch->page_entries);
  }
  if (read.ok()) return true;
  if (scratch->status.ok()) scratch->status = std::move(read);
  return false;
}

std::vector<LeafEntry> RTree::KNearestByDistMin(const geom::Point& q, int k) const {
  TraversalScratch scratch;
  std::vector<LeafEntry> result;
  KNearestByDistMin(q, k, &scratch, &result);
  return result;
}

void RTree::KNearestByDistMin(const geom::Point& q, int k,
                              TraversalScratch* scratch,
                              std::vector<LeafEntry>* out) const {
  // Best-first search: min-heap keyed by a lower bound on dist_min with
  // the canonical tie-break (see KnnHeapItem). std::greater over
  // operator>, push_heap/pop_heap on the caller's reusable vector.
  out->clear();
  std::vector<KnnHeapItem>& heap = scratch->heap;
  heap.clear();
  const std::greater<KnnHeapItem> worse;
  heap.push_back({0.0, root_, -1, 0, {}});
  for (const LeafEntry& e : tail_) {
    heap.push_back({e.mbc.DistMin(q), 0, e.id, 2, e});
    std::push_heap(heap.begin(), heap.end(), worse);
  }

  std::vector<LeafEntry>& page_entries = scratch->page_entries;
  while (!heap.empty() && out->size() < static_cast<size_t>(k)) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const KnnHeapItem item = std::move(heap.back());
    heap.pop_back();
    switch (item.kind) {
      case 0: {  // node
        if (stats_ != nullptr) stats_->Add(Ticker::kRtreeNodeVisits);
        const Node& node = nodes_[item.index];
        for (uint32_t c : node.children) {
          if (node.leaf_children) {
            heap.push_back({leaf_mbrs_[c].MinDist(q), c, -1, 1, {}});
          } else {
            heap.push_back({nodes_[c].mbr.MinDist(q), c, -1, 0, {}});
          }
          std::push_heap(heap.begin(), heap.end(), worse);
        }
        break;
      }
      case 1: {  // leaf page
        if (!ReadLeafInto(leaf_pages_[item.index], scratch)) return;
        for (const LeafEntry& e : page_entries) {
          heap.push_back({e.mbc.DistMin(q), item.index, e.id, 2, e});
          std::push_heap(heap.begin(), heap.end(), worse);
        }
        break;
      }
      default:  // entry
        out->push_back(item.entry);
        break;
    }
  }
}

std::vector<LeafEntry> RTree::CentersInRange(const geom::Point& center,
                                             double radius) const {
  TraversalScratch scratch;
  std::vector<LeafEntry> result;
  CentersInRange(center, radius, &scratch, &result);
  return result;
}

void RTree::CentersInRange(const geom::Point& center, double radius,
                           TraversalScratch* scratch,
                           std::vector<LeafEntry>* out) const {
  out->clear();
  std::vector<LeafEntry>& page_entries = scratch->page_entries;
  std::vector<uint32_t>& stack = scratch->stack;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    const uint32_t idx = stack.back();
    stack.pop_back();
    if (stats_ != nullptr) stats_->Add(Ticker::kRtreeNodeVisits);
    const Node& node = nodes_[idx];
    for (uint32_t c : node.children) {
      if (node.leaf_children) {
        if (leaf_mbrs_[c].MinDist(center) > radius) continue;
        if (!ReadLeafInto(leaf_pages_[c], scratch)) return;
        for (const LeafEntry& e : page_entries) {
          if (geom::Distance(e.mbc.center, center) <= radius) {
            out->push_back(e);
          }
        }
      } else if (nodes_[c].mbr.MinDist(center) <= radius) {
        stack.push_back(c);
      }
    }
  }
  for (const LeafEntry& e : tail_) {
    if (geom::Distance(e.mbc.center, center) <= radius) out->push_back(e);
  }
}

size_t RTree::MemoryBytes() const {
  size_t bytes = sizeof(RTree) + leaf_pages_.size() * sizeof(storage::PageId) +
                 leaf_mbrs_.size() * sizeof(geom::Box) +
                 tail_.size() * sizeof(LeafEntry);
  for (const Node& n : nodes_) {
    bytes += sizeof(Node) + n.children.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace rtree
}  // namespace uvd
