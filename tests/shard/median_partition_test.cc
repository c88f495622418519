// The shard partitioner (PartitionDomain's extent-median cuts), mirroring
// tests/core/stage2_partition_test.cc's determinism contract on the
// sharding axis: PNN/answer-id digests must be bitwise-identical to the
// unsharded baseline for K in {1, 4, 7} on uniform AND clustered
// (Fig. 7(g)-style) datasets — only the shard boxes may differ. On skewed
// data the median cuts must actually balance: per-shard object counts
// within +-1 of the ideal share for point extents, and max/mean <= 1.25 on
// a clustered set at K = 8. The cuts of a seeded uniform set and a seeded
// sigma-2500 cloud are pinned bit for bit, and PartitionDomain's K = 1
// contract — the closed global domain box, no cut computation — with and
// without extents.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/generators.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

namespace uvd {
namespace shard {
namespace {

constexpr double kDomainSize = 10000.0;

/// The 10:1 two-cluster skew spec used throughout: a hot cluster in the
/// lower-left quadrant and a cold one in the upper-right.
std::vector<datagen::ClusterSpec> SkewSpec(double sigma) {
  return {{{2500.0, 2500.0}, sigma, 10.0}, {{7500.0, 7500.0}, sigma, 1.0}};
}

std::vector<uncertain::UncertainObject> MakeObjects(bool clustered, size_t n,
                                                    uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return clustered ? datagen::GenerateClusters(opts, SkewSpec(600.0))
                   : datagen::GenerateUniform(opts);
}

geom::Box Domain() { return geom::Box({0, 0}, {kDomainSize, kDomainSize}); }

ShardedUVDiagram BuildSharded(const std::vector<uncertain::UncertainObject>& objects,
                              int num_shards) {
  ShardedUVDiagramOptions options;
  options.num_shards = num_shards;
  return ShardedUVDiagram::Build(objects, Domain(), options).ValueOrDie();
}

double ObjectImbalance(const ShardedUVDiagram& d) {
  size_t total = 0, max_objects = 0;
  for (const auto& b : d.BalanceReport()) {
    total += b.objects;
    max_objects = std::max(max_objects, b.objects);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(d.num_shards());
  return static_cast<double>(max_objects) / mean;
}

/// PNN + answer-id probes covering every shard's cut lines plus randoms.
query::QueryBatch ProbeBatch(const ShardedUVDiagram& sharded, uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> points;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const geom::Box& box = sharded.shard(s).box;
    for (const geom::Point& corner : box.Corners()) points.push_back(corner);
    points.push_back({box.lo.x, rng.Uniform(0.0, kDomainSize)});
    points.push_back({rng.Uniform(0.0, kDomainSize), box.hi.y});
  }
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.Uniform(0.0, kDomainSize), rng.Uniform(0.0, kDomainSize)});
  }
  points.push_back({kDomainSize, kDomainSize});  // closed max corner
  query::QueryBatch batch;
  batch.reserve(points.size() * 2);
  for (const auto& p : points) {
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

TEST(MedianPartitionTest, SingleShardIsClosedDomainBoxWithAndWithoutExtents) {
  const geom::Box domain = Domain();
  const std::vector<geom::Box> extents = {geom::Box({0, 0}, {20, 20}),
                                          geom::Box({350, 850}, {450, 950})};
  for (const int k : {1, 0, -3}) {  // non-positive clamps to 1
    SCOPED_TRACE("k=" + std::to_string(k));
    for (const auto& boxes :
         {PartitionDomain(domain, k, {}), PartitionDomain(domain, k, extents)}) {
      ASSERT_EQ(boxes.size(), 1u);
      // Bitwise the closed domain box: no half-open max-edge cut box.
      EXPECT_EQ(boxes[0].lo.x, domain.lo.x);
      EXPECT_EQ(boxes[0].lo.y, domain.lo.y);
      EXPECT_EQ(boxes[0].hi.x, domain.hi.x);
      EXPECT_EQ(boxes[0].hi.y, domain.hi.y);
    }
  }
}

TEST(MedianPartitionTest, MedianPartitionTilesDomainExactly) {
  const geom::Box domain = Domain();
  Rng rng(7);
  std::vector<geom::Box> extents;
  for (int i = 0; i < 500; ++i) {
    const geom::Point c{rng.Uniform(0.0, kDomainSize), rng.Uniform(0.0, kDomainSize)};
    const double half = rng.Uniform(0.0, 120.0);
    extents.emplace_back(geom::Point{c.x - half, c.y - half},
                         geom::Point{c.x + half, c.y + half});
  }
  for (const int k : {2, 3, 5, 7, 8, 9, 12, 16}) {
    const auto boxes = PartitionDomain(domain, k, extents);
    ASSERT_EQ(boxes.size(), static_cast<size_t>(k));
    double area = 0.0;
    for (const auto& b : boxes) {
      EXPECT_TRUE(domain.ContainsBox(b));
      EXPECT_GT(b.Area(), 0.0);
      area += b.Area();
    }
    EXPECT_NEAR(area, domain.Area(), 1e-6 * domain.Area());
  }
}

TEST(MedianPartitionTest, MedianCutsBoundCountsWithinOneOfIdealOnSkewedCloud) {
  // Point extents (zero-size bounds): no replication to anticipate, so the
  // recursive minimax split must recover the plain object-count median —
  // per-shard center counts within +-1 of the ideal n/K share, even though
  // 10/11ths of the mass sits in one quadrant.
  const size_t n = 1000;
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = 17;
  const auto objects = datagen::GenerateClusters(opts, SkewSpec(350.0));
  std::vector<geom::Box> extents;
  extents.reserve(n);
  for (const auto& o : objects) extents.emplace_back(o.center(), o.center());
  for (const int k : {4, 8}) {
    const auto boxes = PartitionDomain(Domain(), k, extents);
    ASSERT_EQ(boxes.size(), static_cast<size_t>(k));
    const double ideal = static_cast<double>(n) / k;
    size_t total = 0;
    for (const auto& box : boxes) {
      size_t count = 0;
      for (const auto& o : objects) {
        if (box.Contains(o.center())) ++count;
      }
      total += count;
      EXPECT_LE(std::abs(static_cast<double>(count) - ideal), 1.0)
          << "k=" << k << " count=" << count;
    }
    // Cuts fall at midpoints between distinct coordinates, so no center
    // lies on a cut and the closed counts sum to exactly n.
    EXPECT_EQ(total, n);
  }
}

TEST(MedianPartitionTest, DigestsIdenticalAcrossShardCounts) {
  const size_t n = 500;
  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "clustered" : "uniform");
    const auto objects = MakeObjects(clustered, n, clustered ? 13 : 11);
    const auto baseline = core::UVDiagram::Build(objects, Domain()).ValueOrDie();
    query::QueryEngine baseline_engine(baseline, {});

    for (const int k : {1, 4, 7}) {
      SCOPED_TRACE("shards=" + std::to_string(k));
      const auto sharded = BuildSharded(objects, k);
      ShardRouter router(sharded);
      const query::QueryBatch batch = ProbeBatch(sharded, 23);
      EXPECT_EQ(query::DigestPointAnswers(router.ExecuteBatch(batch)),
                query::DigestPointAnswers(baseline_engine.ExecuteBatch(batch)));
    }
  }
}

TEST(MedianPartitionTest, MedianBalancesClusteredCloudAtK8) {
  // The balance bound: on a 10:1 clustered dataset at K = 8 the median
  // cuts stay within 1.25x of the mean, with answers bitwise-identical to
  // the unsharded baseline, cut-line probes included.
  const size_t n = 800;
  const auto objects = MakeObjects(/*clustered=*/true, n, 19);
  const auto baseline = core::UVDiagram::Build(objects, Domain()).ValueOrDie();
  query::QueryEngine baseline_engine(baseline, {});

  const auto median = BuildSharded(objects, 8);
  ASSERT_EQ(median.num_shards(), 8u);
  EXPECT_LE(ObjectImbalance(median), 1.25);

  ShardRouter router(median);
  const query::QueryBatch batch = ProbeBatch(median, 29);
  EXPECT_EQ(query::DigestPointAnswers(router.ExecuteBatch(batch)),
            query::DigestPointAnswers(baseline_engine.ExecuteBatch(batch)));
}

/// One shard box of a golden cut set, tagged with the shard count K.
struct GoldenBox {
  int k;
  double lo_x, lo_y, hi_x, hi_y;
};

// The shard boxes ShardedUVDiagram::Build cuts for 600 objects, as hex
// floats. Every cut is a count comparison over extent endpoints, so any
// change to the extent prediction or the cut search that moves a shard
// boundary (and with it the shard files' bytes) shows here.
const GoldenBox kUniformCuts[] = {
    {2, 0x0p+0, 0x0p+0, 0x1.37603e3b636c4p+12, 0x1.388p+13},
    {2, 0x1.37603e3b636c4p+12, 0x0p+0, 0x1.388p+13, 0x1.388p+13},
    {3, 0x0p+0, 0x0p+0, 0x1.ab8b625c23e09p+12, 0x1.4c25ce8a93d3cp+12},
    {3, 0x0p+0, 0x1.4c25ce8a93d3cp+12, 0x1.ab8b625c23e09p+12, 0x1.388p+13},
    {3, 0x1.ab8b625c23e09p+12, 0x0p+0, 0x1.388p+13, 0x1.388p+13},
    {4, 0x0p+0, 0x0p+0, 0x1.37603e3b636c4p+12, 0x1.514d02f6d39cfp+12},
    {4, 0x0p+0, 0x1.514d02f6d39cfp+12, 0x1.37603e3b636c4p+12, 0x1.388p+13},
    {4, 0x1.37603e3b636c4p+12, 0x0p+0, 0x1.388p+13, 0x1.58223493ec824p+12},
    {4, 0x1.37603e3b636c4p+12, 0x1.58223493ec824p+12, 0x1.388p+13, 0x1.388p+13},
    {5, 0x0p+0, 0x0p+0, 0x1.78f4970b6e129p+12, 0x1.d8a6c4afac4f6p+11},
    {5, 0x0p+0, 0x1.d8a6c4afac4f6p+11, 0x1.78f4970b6e129p+12, 0x1.b52e2bffde7b8p+12},
    {5, 0x0p+0, 0x1.b52e2bffde7b8p+12, 0x1.78f4970b6e129p+12, 0x1.388p+13},
    {5, 0x1.78f4970b6e129p+12, 0x0p+0, 0x1.388p+13, 0x1.58223493ec824p+12},
    {5, 0x1.78f4970b6e129p+12, 0x1.58223493ec824p+12, 0x1.388p+13, 0x1.388p+13},
    {8, 0x0p+0, 0x0p+0, 0x1.37603e3b636c4p+12, 0x1.5f3063e654a14p+11},
    {8, 0x0p+0, 0x1.5f3063e654a14p+11, 0x1.37603e3b636c4p+12, 0x1.514d02f6d39cfp+12},
    {8, 0x0p+0, 0x1.514d02f6d39cfp+12, 0x1.5b911ac70ce27p+11, 0x1.388p+13},
    {8, 0x1.5b911ac70ce27p+11, 0x1.514d02f6d39cfp+12, 0x1.37603e3b636c4p+12, 0x1.388p+13},
    {8, 0x1.37603e3b636c4p+12, 0x0p+0, 0x1.388p+13, 0x1.5caf51a66f7bcp+11},
    {8, 0x1.37603e3b636c4p+12, 0x1.5caf51a66f7bcp+11, 0x1.388p+13, 0x1.58223493ec824p+12},
    {8, 0x1.37603e3b636c4p+12, 0x1.58223493ec824p+12, 0x1.d4f4c086e9f6cp+12, 0x1.388p+13},
    {8, 0x1.d4f4c086e9f6cp+12, 0x1.58223493ec824p+12, 0x1.388p+13, 0x1.388p+13},
};
const GoldenBox kCloudCuts[] = {
    {2, 0x0p+0, 0x0p+0, 0x1.2df5735a7d642p+12, 0x1.388p+13},
    {2, 0x1.2df5735a7d642p+12, 0x0p+0, 0x1.388p+13, 0x1.388p+13},
    {3, 0x0p+0, 0x0p+0, 0x1.71de3f34dd3f6p+12, 0x1.37a34b799f572p+12},
    {3, 0x0p+0, 0x1.37a34b799f572p+12, 0x1.71de3f34dd3f6p+12, 0x1.388p+13},
    {3, 0x1.71de3f34dd3f6p+12, 0x0p+0, 0x1.388p+13, 0x1.388p+13},
    {4, 0x0p+0, 0x0p+0, 0x1.2df5735a7d642p+12, 0x1.38d3471c50fc2p+12},
    {4, 0x0p+0, 0x1.38d3471c50fc2p+12, 0x1.2df5735a7d642p+12, 0x1.388p+13},
    {4, 0x1.2df5735a7d642p+12, 0x0p+0, 0x1.388p+13, 0x1.39efe97cc0054p+12},
    {4, 0x1.2df5735a7d642p+12, 0x1.39efe97cc0054p+12, 0x1.388p+13, 0x1.388p+13},
    {5, 0x0p+0, 0x0p+0, 0x1.52cca41c53b28p+12, 0x1.e8cbeeb77ee04p+11},
    {5, 0x0p+0, 0x1.e8cbeeb77ee04p+11, 0x1.52cca41c53b28p+12, 0x1.7829843ec3864p+12},
    {5, 0x0p+0, 0x1.7829843ec3864p+12, 0x1.52cca41c53b28p+12, 0x1.388p+13},
    {5, 0x1.52cca41c53b28p+12, 0x0p+0, 0x1.388p+13, 0x1.351e72e5865a7p+12},
    {5, 0x1.52cca41c53b28p+12, 0x1.351e72e5865a7p+12, 0x1.388p+13, 0x1.388p+13},
    {8, 0x0p+0, 0x0p+0, 0x1.2df5735a7d642p+12, 0x1.a48c59ff435eap+11},
    {8, 0x0p+0, 0x1.a48c59ff435eap+11, 0x1.2df5735a7d642p+12, 0x1.38d3471c50fc2p+12},
    {8, 0x0p+0, 0x1.38d3471c50fc2p+12, 0x1.2df5735a7d642p+12, 0x1.9a690fbd0e05ap+12},
    {8, 0x0p+0, 0x1.9a690fbd0e05ap+12, 0x1.2df5735a7d642p+12, 0x1.388p+13},
    {8, 0x1.2df5735a7d642p+12, 0x0p+0, 0x1.908e9848326e7p+12, 0x1.39efe97cc0054p+12},
    {8, 0x1.908e9848326e7p+12, 0x0p+0, 0x1.388p+13, 0x1.39efe97cc0054p+12},
    {8, 0x1.2df5735a7d642p+12, 0x1.39efe97cc0054p+12, 0x1.925545dec904ep+12, 0x1.388p+13},
    {8, 0x1.925545dec904ep+12, 0x1.39efe97cc0054p+12, 0x1.388p+13, 0x1.388p+13},
};

TEST(MedianPartitionTest, MedianCutsMatchGoldenBoxes) {
  datagen::DatasetOptions opts;
  opts.count = 600;
  for (const bool cloud : {false, true}) {
    SCOPED_TRACE(cloud ? "sigma-2500 cloud" : "uniform");
    opts.seed = cloud ? 61 : 53;
    const auto objects = cloud ? datagen::GenerateGaussianCloud(opts, 2500.0)
                               : datagen::GenerateUniform(opts);
    const GoldenBox* golden = cloud ? kCloudCuts : kUniformCuts;
    for (const int k : {2, 3, 4, 5, 8}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ShardedUVDiagramOptions options;
      options.num_shards = k;
      options.diagram.build_threads = 1;
      const auto sharded =
          ShardedUVDiagram::Build(objects, datagen::DomainFor(opts), options).ValueOrDie();
      ASSERT_EQ(sharded.num_shards(), static_cast<size_t>(k));
      for (size_t s = 0; s < sharded.num_shards(); ++s, ++golden) {
        ASSERT_EQ(golden->k, k);
        const geom::Box& box = sharded.shard(s).box;
        EXPECT_EQ(box.lo.x, golden->lo_x) << "shard " << s;
        EXPECT_EQ(box.lo.y, golden->lo_y) << "shard " << s;
        EXPECT_EQ(box.hi.x, golden->hi_x) << "shard " << s;
        EXPECT_EQ(box.hi.y, golden->hi_y) << "shard " << s;
      }
    }
    EXPECT_EQ(golden, cloud ? std::end(kCloudCuts) : std::end(kUniformCuts));
  }
}

}  // namespace
}  // namespace shard
}  // namespace uvd
