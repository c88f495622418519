// Tests for the packed R-tree: structure invariants, k-NN and range
// queries against brute force, I/O accounting.
#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "rtree/pnn_baseline.h"

namespace uvd {
namespace rtree {
namespace {

struct Fixture {
  Stats stats;
  storage::PageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<RTree> tree;

  void Build(int n, uint64_t seed = 3, int fanout = 100, double radius_max = 25) {
    Rng rng(seed);
    objects.clear();
    for (int i = 0; i < n; ++i) {
      objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
          i, geom::Circle({rng.Uniform(0, 10000), rng.Uniform(0, 10000)},
                          rng.Uniform(0.5, radius_max))));
    }
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    auto t = RTree::BulkLoad(objects, ptrs, &pm, {fanout}, &stats);
    UVD_CHECK(t.ok()) << t.status().ToString();
    tree.emplace(std::move(t).value());
  }
};

TEST(RTreeTest, RejectsBadInput) {
  storage::PageManager pm;
  auto t1 = RTree::BulkLoad({}, {}, &pm, {}, nullptr);
  EXPECT_FALSE(t1.ok());
  const auto obj = uncertain::UncertainObject::WithGaussianPdf(0, {{1, 1}, 1});
  auto t2 = RTree::BulkLoad({obj}, {}, &pm, {}, nullptr);
  EXPECT_FALSE(t2.ok());  // size mismatch
  auto t3 = RTree::BulkLoad({obj}, {0}, &pm, {1}, nullptr);
  EXPECT_FALSE(t3.ok());  // fanout < 2
  auto t4 = RTree::BulkLoad({obj}, {0}, &pm, {10000}, nullptr);
  EXPECT_FALSE(t4.ok());  // fanout too large for the page
}

TEST(RTreeTest, StructureInvariants) {
  Fixture f;
  f.Build(1234);
  const RTree& tree = *f.tree;
  EXPECT_EQ(tree.num_objects(), 1234u);
  // Leaf pages hold at most fanout entries and at least 1.
  size_t total = 0;
  for (size_t i = 0; i < tree.num_leaf_pages(); ++i) {
    std::vector<LeafEntry> entries;
    ASSERT_TRUE(tree.ReadLeaf(tree.leaf_pages()[i], &entries).ok());
    EXPECT_GE(entries.size(), 1u);
    EXPECT_LE(entries.size(), 100u);
    total += entries.size();
    // Every entry's MBC box is inside the leaf MBR.
    for (const LeafEntry& e : entries) {
      EXPECT_TRUE(tree.leaf_mbrs()[i].ContainsBox(e.mbc.Mbr()));
    }
  }
  EXPECT_EQ(total, 1234u);
  // 1234 objects at 100 per page need at least 13 leaves; STR tiling may
  // leave a short page per slab, so allow a small surplus.
  EXPECT_GE(tree.num_leaf_pages(), 13u);
  EXPECT_LE(tree.num_leaf_pages(), 20u);
  EXPECT_EQ(tree.height(), 2);
  EXPECT_GT(tree.MemoryBytes(), 0u);
}

TEST(RTreeTest, NodeMbrsContainChildren) {
  Fixture f;
  f.Build(5000, 17, 10);  // small fanout -> several levels
  const RTree& tree = *f.tree;
  EXPECT_GE(tree.height(), 3);
  for (const RTree::Node& node : tree.nodes()) {
    for (uint32_t c : node.children) {
      const geom::Box& child =
          node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
      EXPECT_TRUE(node.mbr.ContainsBox(child));
    }
  }
}

TEST(RTreeTest, KnnMatchesBruteForce) {
  Fixture f;
  f.Build(2000, 11);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 30));
    const auto got = f.tree->KNearestByDistMin(q, k);
    ASSERT_EQ(got.size(), static_cast<size_t>(k));

    std::vector<double> brute;
    for (const auto& o : f.objects) brute.push_back(o.DistMin(q));
    std::sort(brute.begin(), brute.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[static_cast<size_t>(i)].mbc.DistMin(q),
                  brute[static_cast<size_t>(i)], 1e-9)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(RTreeTest, KnnWithKLargerThanN) {
  Fixture f;
  f.Build(50);
  const auto got = f.tree->KNearestByDistMin({5000, 5000}, 500);
  EXPECT_EQ(got.size(), 50u);
}

TEST(RTreeTest, CentersInRangeMatchesBruteForce) {
  Fixture f;
  f.Build(3000, 23);
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point c{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const double radius = rng.Uniform(50, 2000);
    auto got = f.tree->CentersInRange(c, radius);
    std::vector<int> got_ids;
    for (const auto& e : got) got_ids.push_back(e.id);
    std::sort(got_ids.begin(), got_ids.end());

    std::vector<int> want_ids;
    for (const auto& o : f.objects) {
      if (geom::Distance(o.center(), c) <= radius) want_ids.push_back(o.id());
    }
    EXPECT_EQ(got_ids, want_ids) << "trial " << trial;
  }
}

TEST(RTreeTest, LeafReadsCounted) {
  Fixture f;
  f.Build(500);
  f.stats.Reset();
  std::vector<LeafEntry> entries;
  ASSERT_TRUE(f.tree->ReadLeaf(f.tree->leaf_pages()[0], &entries).ok());
  EXPECT_EQ(f.stats.Get(Ticker::kRtreeLeafReads), 1u);
  EXPECT_EQ(f.stats.Get(Ticker::kPageReads), 1u);
}

TEST(RTreeTest, SingleObjectTree) {
  Fixture f;
  f.Build(1);
  EXPECT_EQ(f.tree->num_leaf_pages(), 1u);
  const auto got = f.tree->KNearestByDistMin({0, 0}, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
}

std::vector<int> Ids(const std::vector<LeafEntry>& entries) {
  std::vector<int> ids;
  for (const LeafEntry& e : entries) ids.push_back(e.id);
  return ids;
}

TEST(RTreeTest, TailAnswersLikeAFreshBulkLoad) {
  // Entries appended after BulkLoad ride in the in-RAM tail. k-NN must
  // return the same canonical sequence, and the range query the same set,
  // as a tree packed over every entry.
  constexpr int kFanout = 100;
  constexpr size_t kPacked = 1234;
  for (size_t appended : {size_t{1}, size_t{kFanout - 1}}) {
    SCOPED_TRACE(appended);
    Fixture f;
    f.Build(static_cast<int>(kPacked + appended), 31, kFanout);
    const std::vector<uncertain::UncertainObject> packed(
        f.objects.begin(), f.objects.begin() + kPacked);
    const std::vector<uncertain::ObjectPtr> packed_ptrs(f.ptrs.begin(),
                                                        f.ptrs.begin() + kPacked);
    RTree tree =
        RTree::BulkLoad(packed, packed_ptrs, &f.pm, {kFanout}, &f.stats).ValueOrDie();
    const size_t bytes0 = tree.MemoryBytes();
    for (size_t i = kPacked; i < f.objects.size(); ++i) {
      tree.Append({f.objects[i].id(), f.objects[i].Mbc(), f.ptrs[i]});
    }
    EXPECT_EQ(tree.tail().size(), appended);
    EXPECT_EQ(tree.num_objects(), f.objects.size());
    EXPECT_EQ(tree.MemoryBytes(), bytes0 + appended * sizeof(LeafEntry));
    // The PNN baseline walks the packed tree only.
    EXPECT_EQ(RetrievePnnCandidates(tree, {5000, 5000}).status().code(),
              StatusCode::kInvalidArgument);

    Rng rng(37);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(trial);
      const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      for (int k : {1, 7, 301}) {
        EXPECT_EQ(Ids(tree.KNearestByDistMin(q, k)), Ids(f.tree->KNearestByDistMin(q, k)))
            << "k=" << k;
      }
      const double radius = rng.Uniform(50, 2000);
      std::vector<int> got = Ids(tree.CentersInRange(q, radius));
      std::vector<int> want = Ids(f.tree->CentersInRange(q, radius));
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
    }
  }
}

}  // namespace
}  // namespace rtree
}  // namespace uvd
