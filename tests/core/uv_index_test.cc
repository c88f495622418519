// Tests for the UV-index (Algorithms 3-5): the no-false-exclusion
// guarantee of Lemma 4, split behaviour under T_theta and M, page
// accounting and point location.
#include "core/uv_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/pnn.h"
#include "datagen/generators.h"

namespace uvd {
namespace core {
namespace {

/// The pipeline on one thread, as every test here builds.
BuildPipelineOptions SerialOptions(BuildMethod method) {
  BuildPipelineOptions options;
  options.method = method;
  options.build_threads = 1;
  return options;
}

struct Fixture {
  Stats stats;
  storage::PageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<UVIndex> index;
  geom::Box domain;

  void Build(size_t n, uint64_t seed, UVIndexOptions idx_opts = {},
             BuildMethod method = BuildMethod::kIC, double diameter = 40,
             double domain_size = 10000) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = seed;
    opts.diameter = diameter;
    opts.domain_size = domain_size;
    objects = datagen::GenerateUniform(opts);
    domain = datagen::DomainFor(opts);
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    tree.emplace(rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie());
    index.emplace(domain, &pm, idx_opts, &stats);
    UVD_CHECK_OK(RunBuildPipeline(objects, ptrs, *tree, domain, SerialOptions(method),
                                  &*index, nullptr, &stats));
  }

  std::vector<int> BruteAnswers(const geom::Point& q) const {
    double d_minmax = std::numeric_limits<double>::infinity();
    for (const auto& o : objects) d_minmax = std::min(d_minmax, o.DistMax(q));
    std::vector<int> ids;
    for (const auto& o : objects) {
      if (o.DistMin(q) <= d_minmax) ids.push_back(o.id());
    }
    return ids;
  }
};

TEST(UvIndexTest, AnswersMatchBruteForceExactly) {
  // End-to-end Lemma 4 check: retrieved tuples may be a superset of the
  // answer set, but after the d_minmax verification they must equal it.
  Fixture f;
  f.Build(1500, 13);
  Rng rng(7);
  for (int t = 0; t < 60; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const std::vector<int> got =
        RetrievePnnAnswerIds(*f.index, q, &f.stats).ValueOrDie();
    EXPECT_EQ(got, f.BruteAnswers(q)) << "t=" << t;
  }
}

TEST(UvIndexTest, RetrievedTuplesAreSuperset) {
  Fixture f;
  f.Build(800, 29);
  Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    auto tuples = f.index->RetrieveCandidates(q);
    ASSERT_TRUE(tuples.ok());
    std::vector<int> got;
    for (const auto& e : tuples.value()) got.push_back(e.id);
    std::sort(got.begin(), got.end());
    for (int id : f.BruteAnswers(q)) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
          << "false exclusion of answer object " << id;
    }
  }
}

TEST(UvIndexTest, SplitsHappenOnRealisticData) {
  Fixture f;
  f.Build(3000, 31);
  EXPECT_GT(f.index->num_nonleaf(), 1);
  EXPECT_GT(f.index->num_leaves(), 4u);
  EXPECT_GT(f.index->height(), 1);
}

TEST(UvIndexTest, ZeroThresholdNeverSplits) {
  // T_theta = 0: theta < 0 is impossible, the grid degrades into one long
  // page list (the paper's sensitivity observation for small T_theta).
  UVIndexOptions opts;
  opts.split_threshold = 0.0;
  Fixture f;
  f.Build(1200, 37, opts);
  EXPECT_EQ(f.index->num_leaves(), 1u);
  EXPECT_GE(f.index->total_leaf_pages(), 1200u / 100u);
  // Queries still correct, just slower.
  Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    EXPECT_EQ(RetrievePnnAnswerIds(*f.index, q).ValueOrDie(), f.BruteAnswers(q));
  }
}

TEST(UvIndexTest, NonleafBudgetRespected) {
  UVIndexOptions opts;
  opts.max_nonleaf = 6;  // tiny M: at most 6 non-leaf allocations
  Fixture f;
  f.Build(2000, 41, opts);
  EXPECT_LE(f.index->num_nonleaf(), 6);
  Rng rng(9);
  for (int t = 0; t < 10; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    EXPECT_EQ(RetrievePnnAnswerIds(*f.index, q).ValueOrDie(), f.BruteAnswers(q));
  }
}

TEST(UvIndexTest, LeafReadsAreCounted) {
  Fixture f;
  f.Build(1000, 43);
  f.stats.Reset();
  auto tuples = f.index->RetrieveCandidates({5000, 5000});
  ASSERT_TRUE(tuples.ok());
  EXPECT_GE(f.stats.Get(Ticker::kUvIndexLeafReads), 1u);
  EXPECT_EQ(f.stats.Get(Ticker::kUvIndexLeafReads), f.stats.Get(Ticker::kPageReads));
}

TEST(UvIndexTest, LocateLeafConsistentWithRegions) {
  Fixture f;
  f.Build(2000, 47);
  Rng rng(13);
  for (int t = 0; t < 200; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const uint32_t leaf = f.index->LocateLeaf(q);
    EXPECT_TRUE(f.index->nodes()[leaf].region.Contains(q));
  }
  // Domain corners and the exact center resolve to a leaf.
  for (const geom::Point& p : f.domain.Corners()) {
    const uint32_t leaf = f.index->LocateLeaf(p);
    EXPECT_TRUE(f.index->nodes()[leaf].region.Contains(p));
  }
  EXPECT_TRUE(
      f.index->nodes()[f.index->LocateLeaf(f.domain.Center())].region.Contains(
          f.domain.Center()));
}

TEST(UvIndexTest, QueriesRequireFinalize) {
  Stats stats;
  storage::PageManager pm(4096, &stats);
  UVIndex index(geom::Box({0, 0}, {100, 100}), &pm, {}, &stats);
  auto result = index.RetrieveCandidates({50, 50});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(UvIndexTest, InsertAfterFinalizeRejected) {
  Stats stats;
  storage::PageManager pm(4096, &stats);
  UVIndex index(geom::Box({0, 0}, {100, 100}), &pm, {}, &stats);
  ASSERT_TRUE(index.InsertObject({{50, 50}, 5}, 0, 0, {}).ok());
  ASSERT_TRUE(index.Finalize().ok());
  EXPECT_FALSE(index.InsertObject({{60, 60}, 5}, 1, 0, {}).ok());
}

TEST(UvIndexTest, QueryOutsideDomainRejected) {
  Fixture f;
  f.Build(100, 53);
  EXPECT_FALSE(f.index->RetrieveCandidates({-1, 50}).ok());
  EXPECT_FALSE(f.index->RetrieveCandidates({20000, 50}).ok());
}

TEST(UvIndexTest, MaxEdgeProbesAreAnsweredNotDropped) {
  // Regression for the sharded-serving boundary semantics: the domain's
  // max edge has no upper neighbor, so it stays closed — probes exactly on
  // it (edges and the far corner) must locate a leaf and answer, not be
  // rejected as out-of-domain.
  Fixture f;
  f.Build(300, 67);
  const double hi_x = f.domain.hi.x;
  const double hi_y = f.domain.hi.y;
  for (const geom::Point q : {geom::Point{hi_x, 5000.0}, geom::Point{5000.0, hi_y},
                              geom::Point{hi_x, hi_y}, geom::Point{hi_x, f.domain.lo.y},
                              geom::Point{f.domain.lo.x, hi_y}}) {
    auto leaf = f.index->LocateLeafChecked(q);
    ASSERT_TRUE(leaf.ok()) << "(" << q.x << ", " << q.y << ")";
    EXPECT_TRUE(f.index->nodes()[leaf.value()].region.Contains(q));
    auto answers = RetrievePnnAnswerIds(*f.index, q, &f.stats);
    ASSERT_TRUE(answers.ok());
    EXPECT_EQ(answers.value(), f.BruteAnswers(q));
  }
}

TEST(UvIndexTest, OwnsPointIsHalfOpen) {
  // [min, max) ownership: min edges owned, max edges not (they belong to
  // the upper/right neighbor in a tiled deployment — or, on the global
  // boundary, to the closed-max-edge acceptance of LocateLeafChecked).
  Fixture f;
  f.Build(100, 71);
  EXPECT_TRUE(f.index->OwnsPoint({f.domain.lo.x, f.domain.lo.y}));
  EXPECT_TRUE(f.index->OwnsPoint({5000, 5000}));
  EXPECT_FALSE(f.index->OwnsPoint({f.domain.hi.x, 5000}));
  EXPECT_FALSE(f.index->OwnsPoint({5000, f.domain.hi.y}));
  EXPECT_FALSE(f.index->OwnsPoint({f.domain.hi.x, f.domain.hi.y}));
  EXPECT_FALSE(f.index->OwnsPoint({f.domain.lo.x - 1, 5000}));
}

TEST(UvIndexTest, AdjacentIndexesOwnCutLinePointsExactlyOnce) {
  // Two indexes tiling [0,100]x[0,100] at x=50: every probe on the cut
  // line is owned by exactly one of them (the right one), so a router
  // produces no drops and no double-answers.
  Stats stats;
  storage::PageManager pm(4096, &stats);
  const geom::Box left({0, 0}, {50, 100});
  const geom::Box right({50, 0}, {100, 100});
  UVIndex left_index(left, &pm, {}, &stats);
  UVIndex right_index(right, &pm, {}, &stats);
  for (double y : {0.0, 25.0, 99.0, 100.0}) {
    const geom::Point q{50, y};
    EXPECT_EQ((left_index.OwnsPoint(q) ? 1 : 0) + (right_index.OwnsPoint(q) ? 1 : 0),
              y < 100.0 ? 1 : 0)
        << "y=" << y;
    EXPECT_FALSE(left_index.OwnsPoint(q));
  }
}

TEST(UvIndexTest, BorderObjectsRequireOptIn) {
  Stats stats;
  storage::PageManager pm(4096, &stats);
  const geom::Box domain({0, 0}, {100, 100});
  UVIndex strict(domain, &pm, {}, &stats);
  EXPECT_FALSE(strict.InsertObject({{120, 50}, 5}, 0, 0, {}).ok());

  UVIndexOptions border;
  border.accept_border_objects = true;
  UVIndex shard(domain, &pm, border, &stats);
  ASSERT_TRUE(shard.InsertObject({{120, 50}, 5}, 0, 0, {}).ok());
  ASSERT_TRUE(shard.InsertObject({{50, 50}, 5}, 1, 0, {}).ok());
  ASSERT_TRUE(shard.Finalize().ok());
  // The external member still lands in leaves (its cell overlaps the
  // domain when no cr-object excludes it), exactly what border
  // replication relies on.
  auto tuples = shard.RetrieveCandidates({50, 50});
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples.value().size(), 2u);
}

TEST(UvIndexTest, UvCellMayOverlapIsConservativeAndMonotone) {
  const geom::Circle region({10, 50}, 5);
  // One competitor far to the right: its outside region covers boxes far
  // right of the anchor but never boxes containing the anchor.
  const std::vector<geom::Circle> crs = {{{90, 50}, 5}};
  const geom::Box near_anchor({0, 40}, {20, 60});
  const geom::Box far_right({80, 40}, {99, 60});
  EXPECT_TRUE(UvCellMayOverlap(region, crs, near_anchor));
  EXPECT_FALSE(UvCellMayOverlap(region, crs, far_right));
  // Monotone under containment: a sub-box of a proven-disjoint box is
  // proven disjoint too (the shard-registration soundness argument).
  const geom::Box sub({85, 45}, {95, 55});
  EXPECT_FALSE(UvCellMayOverlap(region, crs, sub));
  // No competitors: the cell is the whole domain, everything overlaps.
  EXPECT_TRUE(UvCellMayOverlap(region, {}, far_right));
}

TEST(UvIndexTest, QuadrantRegionsTileParents) {
  Fixture f;
  f.Build(2500, 59);
  for (const UVIndex::Node& node : f.index->nodes()) {
    if (node.is_leaf) continue;
    double child_area = 0;
    for (uint32_t c : node.children) {
      const auto& child = f.index->nodes()[c];
      EXPECT_TRUE(node.region.ContainsBox(child.region));
      child_area += child.region.Area();
    }
    EXPECT_NEAR(child_area, node.region.Area(), 1e-6 * node.region.Area());
  }
}

TEST(UvIndexTest, PaperMemoryModel) {
  Fixture f;
  f.Build(2000, 61);
  EXPECT_EQ(f.index->PaperMemoryBytes(),
            16u * static_cast<size_t>(f.index->num_nonleaf()));
}

TEST(UvIndexTest, DuplicateCentersHandled) {
  // Identical objects stacked at one point plus a few others.
  datagen::DatasetOptions opts;
  opts.count = 0;
  Stats stats;
  storage::PageManager pm(4096, &stats);
  uncertain::ObjectStore store(&pm);
  std::vector<uncertain::UncertainObject> objs;
  for (int i = 0; i < 5; ++i) {
    objs.push_back(uncertain::UncertainObject::WithGaussianPdf(i, {{5000, 5000}, 20}));
  }
  objs.push_back(uncertain::UncertainObject::WithGaussianPdf(5, {{2000, 2000}, 20}));
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(store.BulkLoad(objs, &ptrs));
  auto tree =
      rtree::RTree::BulkLoad(objs, ptrs, &pm, {100}, &stats).ValueOrDie();
  const geom::Box domain({0, 0}, {10000, 10000});
  UVIndex index(domain, &pm, {}, &stats);
  ASSERT_TRUE(RunBuildPipeline(objs, ptrs, tree, domain, SerialOptions(BuildMethod::kIC),
                               &index, nullptr, &stats)
                  .ok());
  // All five stacked objects answer at their shared center.
  const auto ids = RetrievePnnAnswerIds(index, {5000, 5000}).ValueOrDie();
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace core
}  // namespace uvd
