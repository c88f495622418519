// Sharded-vs-unsharded equivalence: for random heterogeneous batches over
// uniform and trajectory workloads — including probes sampled exactly on
// shard cut lines and the domain boundary — the ShardRouter's PNN and
// answer-id results must be BITWISE-identical (ids and probability bits,
// compared by FNV hash and element-wise) to a single-index baseline, for
// every shard count and thread configuration.
// UV-partition and cell-summary answers are index-structure reports, so
// cross-deployment equality is semantic (exact range coverage, disjoint
// per-shard leaf merges) rather than bitwise; within one deployment they
// too must be bitwise-deterministic across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "geom/batch/kernels.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

namespace uvd {
namespace shard {
namespace {

datagen::DatasetOptions DataOptions(size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return opts;
}

core::UVDiagram BuildBaseline(size_t n, uint64_t seed) {
  const auto opts = DataOptions(n, seed);
  return core::UVDiagram::Build(datagen::GenerateUniform(opts),
                                datagen::DomainFor(opts))
      .ValueOrDie();
}

ShardedUVDiagram BuildSharded(size_t n, uint64_t seed, int num_shards) {
  const auto opts = DataOptions(n, seed);
  ShardedUVDiagramOptions options;
  options.num_shards = num_shards;
  return ShardedUVDiagram::Build(datagen::GenerateUniform(opts),
                                 datagen::DomainFor(opts), options)
      .ValueOrDie();
}

/// Point probes that stress border correctness: every interior cut
/// coordinate crossed with random offsets along the other axis, all shard
/// box corners, and the domain's own corners and max edges.
std::vector<geom::Point> CutLineProbes(const ShardedUVDiagram& diagram,
                                       uint64_t seed) {
  const geom::Box& domain = diagram.domain();
  Rng rng(seed);
  std::vector<geom::Point> probes;
  for (size_t s = 0; s < diagram.num_shards(); ++s) {
    const geom::Box& box = diagram.shard(s).box;
    for (const geom::Point& corner : box.Corners()) probes.push_back(corner);
    for (int k = 0; k < 4; ++k) {
      const double y = rng.Uniform(domain.lo.y, domain.hi.y);
      const double x = rng.Uniform(domain.lo.x, domain.hi.x);
      probes.push_back({box.lo.x, y});  // exactly on the vertical cut
      probes.push_back({box.hi.x, y});
      probes.push_back({x, box.lo.y});  // exactly on the horizontal cut
      probes.push_back({x, box.hi.y});
    }
  }
  probes.push_back({domain.hi.x, domain.hi.y});
  probes.push_back({domain.lo.x, domain.lo.y});
  return probes;
}

void ExpectPointAnswersIdentical(const std::vector<query::QueryResult>& sharded,
                                 const std::vector<query::QueryResult>& baseline) {
  ASSERT_EQ(sharded.size(), baseline.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_EQ(sharded[i].status.ok(), baseline[i].status.ok());
    ASSERT_EQ(sharded[i].pnn.size(), baseline[i].pnn.size());
    for (size_t k = 0; k < sharded[i].pnn.size(); ++k) {
      EXPECT_EQ(sharded[i].pnn[k].id, baseline[i].pnn[k].id);
      EXPECT_EQ(sharded[i].pnn[k].probability, baseline[i].pnn[k].probability);
    }
    EXPECT_EQ(sharded[i].answer_ids, baseline[i].answer_ids);
  }
  EXPECT_EQ(query::DigestPointAnswers(sharded), query::DigestPointAnswers(baseline));
}

query::QueryBatch PointBatch(const std::vector<geom::Point>& points) {
  query::QueryBatch batch;
  batch.reserve(points.size() * 2);
  for (const auto& p : points) {
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

TEST(ShardedEquivalenceTest, PartitionDomainTilesExactly) {
  // Without extents every cut is the geometric proportional one; with the
  // object regions as extents the cuts follow the data.
  const auto opts = DataOptions(300, 3);
  std::vector<geom::Box> regions;
  for (const auto& o : datagen::GenerateUniform(opts)) {
    regions.push_back(o.region().Mbr());
  }
  const geom::Box domain({0, 0}, {10000, 10000});
  for (const auto& extents : {std::vector<geom::Box>{}, regions}) {
    for (int k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16}) {
      const auto boxes = PartitionDomain(domain, k, extents);
      ASSERT_EQ(boxes.size(), static_cast<size_t>(k));
      double area = 0;
      for (const auto& b : boxes) {
        EXPECT_TRUE(domain.ContainsBox(b));
        EXPECT_GT(b.Area(), 0);
        area += b.Area();
      }
      EXPECT_NEAR(area, domain.Area(), 1e-6 * domain.Area());
    }
  }
}

TEST(ShardedEquivalenceTest, EveryDomainPointOwnedByExactlyOneShard) {
  const auto diagram = BuildSharded(600, 3, 9);
  Rng rng(17);
  std::vector<geom::Point> probes = CutLineProbes(diagram, 19);
  for (int i = 0; i < 200; ++i) {
    probes.push_back({rng.Uniform(0, 10000), rng.Uniform(0, 10000)});
  }
  for (const auto& p : probes) {
    const int owner = diagram.ShardIndexForPoint(p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, static_cast<int>(diagram.num_shards()));
    EXPECT_TRUE(diagram.shard(static_cast<size_t>(owner)).box.Contains(p))
        << "(" << p.x << ", " << p.y << ")";
    // Exclusive: no other shard owns it under the half-open convention;
    // interior points are claimed by exactly one OwnsPoint.
    int half_open_owners = 0;
    for (size_t s = 0; s < diagram.num_shards(); ++s) {
      half_open_owners += diagram.shard(s).index->OwnsPoint(p) ? 1 : 0;
    }
    EXPECT_LE(half_open_owners, 1);
    if (diagram.domain().ContainsHalfOpen(p)) {
      EXPECT_EQ(half_open_owners, 1);
    }
  }
}

TEST(ShardedEquivalenceTest, BorderObjectsReplicatedToEveryTouchedShard) {
  const auto diagram = BuildSharded(700, 5, 4);
  size_t replicated = 0;
  for (const auto& o : diagram.objects()) {
    const auto shards = diagram.ShardsForObject(o.id());
    ASSERT_FALSE(shards.empty()) << "object " << o.id() << " registered nowhere";
    // The uncertainty region is contained in the UV-cell, so any shard box
    // the circle reaches must have registered the object.
    for (size_t s = 0; s < diagram.num_shards(); ++s) {
      if (diagram.shard(s).box.MinDist(o.center()) <= o.radius()) {
        EXPECT_NE(std::find(shards.begin(), shards.end(), static_cast<int>(s)),
                  shards.end())
            << "object " << o.id() << " missing from touching shard " << s;
      }
    }
    if (shards.size() > 1) ++replicated;
  }
  // Cut lines cross real data: replication must actually occur.
  EXPECT_GT(replicated, 0u);
}

TEST(ShardedEquivalenceTest, PointAnswersBitwiseIdenticalIncludingCutLines) {
  const size_t n = 700;
  const uint64_t seed = 11;
  const core::UVDiagram baseline = BuildBaseline(n, seed);
  query::QueryEngine baseline_engine(baseline, [] {
    query::QueryEngineOptions o;
    o.threads = 1;
    return o;
  }());

  for (int k : {1, 2, 3, 4, 5, 8, 9}) {
    const auto sharded = BuildSharded(n, seed, k);
    ShardRouter router(sharded);

    std::vector<geom::Point> points = CutLineProbes(sharded, 23);
    Rng rng(29);
    for (int i = 0; i < 60; ++i) {
      points.push_back({rng.Uniform(0, 10000), rng.Uniform(0, 10000)});
    }
    points.push_back({-50, 200});  // outside: InvalidArgument both ways

    const query::QueryBatch batch = PointBatch(points);
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectPointAnswersIdentical(router.ExecuteBatch(batch),
                                baseline_engine.ExecuteBatch(batch));
  }
}

TEST(ShardedEquivalenceTest, TrajectoryWorkloadHashMatchesBaseline) {
  const size_t n = 800;
  const uint64_t seed = 13;
  const core::UVDiagram baseline = BuildBaseline(n, seed);
  query::QueryEngine baseline_engine(baseline, {});
  const auto sharded = BuildSharded(n, seed, 6);
  ShardRouter router(sharded);

  const auto points =
      datagen::TrajectoryQueryPoints(400, baseline.domain(), 25.0, 31);
  const query::QueryBatch batch = PointBatch(points);
  const auto expected = baseline_engine.ExecuteBatch(batch);
  const auto got = router.ExecuteBatch(batch);
  EXPECT_EQ(query::DigestPointAnswers(got), query::DigestPointAnswers(expected));
  ExpectPointAnswersIdentical(got, expected);
}

TEST(ShardedEquivalenceTest, UvPartitionsCoverRangesExactly) {
  const size_t n = 900;
  const uint64_t seed = 7;
  const core::UVDiagram baseline = BuildBaseline(n, seed);
  const auto sharded = BuildSharded(n, seed, 6);
  ShardRouter router(sharded);

  const auto clipped_area = [](const std::vector<core::UvPartition>& parts,
                               const geom::Box& range) {
    double area = 0;
    for (const auto& p : parts) {
      const double w = std::min(p.region.hi.x, range.hi.x) -
                       std::max(p.region.lo.x, range.lo.x);
      const double h = std::min(p.region.hi.y, range.hi.y) -
                       std::max(p.region.lo.y, range.lo.y);
      if (w > 0 && h > 0) area += w * h;
    }
    return area;
  };

  Rng rng(37);
  for (int i = 0; i < 12; ++i) {
    const double side = rng.Uniform(100, 2500);
    const geom::Point lo{rng.Uniform(0, 10000 - side), rng.Uniform(0, 10000 - side)};
    const geom::Box range(lo, {lo.x + side, lo.y + side});
    query::QueryBatch batch = {query::Query::UvPartitions(range)};

    const auto sharded_parts = router.ExecuteBatch(batch)[0].partitions;
    const auto baseline_parts = baseline.QueryUvPartitions(range);
    SCOPED_TRACE("range " + std::to_string(i));
    ASSERT_FALSE(sharded_parts.empty());
    // Both deployments tile the queried range exactly once (leaves tile
    // each shard, shards tile the domain) — same covered area, even though
    // the leaf boundaries differ between index structures.
    EXPECT_NEAR(clipped_area(sharded_parts, range), range.Area(),
                1e-6 * range.Area());
    EXPECT_NEAR(clipped_area(baseline_parts, range), range.Area(),
                1e-6 * range.Area());
    // Every sharded partition is one shard's own leaf: positive counts
    // live inside exactly one shard box.
    for (const auto& p : sharded_parts) {
      int holders = 0;
      for (size_t s = 0; s < sharded.num_shards(); ++s) {
        if (sharded.shard(s).box.ContainsBox(p.region)) ++holders;
      }
      EXPECT_EQ(holders, 1);
    }
  }
}

TEST(ShardedEquivalenceTest, CellSummariesMergeShardLeavesExactly) {
  const size_t n = 700;
  const uint64_t seed = 19;
  const auto sharded = BuildSharded(n, seed, 4);
  ShardRouter router(sharded);

  query::QueryBatch batch;
  for (int id : {0, 17, 350, 699}) batch.push_back(query::Query::CellSummary(id));
  batch.push_back(query::Query::CellSummary(1 << 28));  // no such object
  const auto results = router.ExecuteBatch(batch);

  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    SCOPED_TRACE("object " + std::to_string(batch[i].object_id));
    ASSERT_TRUE(results[i].status.ok());
    // The merge must equal the sum of the per-shard ground truth.
    double area = 0;
    size_t leaves = 0;
    for (int s : sharded.ShardsForObject(batch[i].object_id)) {
      const auto direct = core::RetrieveUvCellSummary(
          *sharded.shard(static_cast<size_t>(s)).index, batch[i].object_id);
      if (!direct.ok()) continue;  // registered but stored in no leaf
      area += direct.value().area;
      leaves += direct.value().num_leaves;
    }
    EXPECT_EQ(results[i].cell_summary.area, area);
    EXPECT_EQ(results[i].cell_summary.num_leaves, leaves);
    EXPECT_GT(results[i].cell_summary.num_leaves, 0u);
  }
  EXPECT_FALSE(results.back().status.ok());
}

TEST(ShardedEquivalenceTest, RouterDeterministicAcrossThreadConfigs) {
  const size_t n = 600;
  const uint64_t seed = 23;
  const auto sharded = BuildSharded(n, seed, 5);

  // A heterogeneous batch exercising all four kinds plus cut-line probes.
  Rng rng(41);
  query::QueryBatch batch;
  for (const auto& p : CutLineProbes(sharded, 43)) batch.push_back(query::Query::Pnn(p));
  for (int i = 0; i < 40; ++i) {
    const geom::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    batch.push_back(query::Query::AnswerIds(p));
    const double side = rng.Uniform(100, 800);
    batch.push_back(query::Query::UvPartitions(
        geom::Box({p.x / 2, p.y / 2}, {p.x / 2 + side, p.y / 2 + side})));
    batch.push_back(query::Query::CellSummary(static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1))));
  }

  std::vector<std::vector<query::QueryResult>> runs;
  for (const int router_threads : {1, 4}) {
    for (const int engine_threads : {1, 2}) {
      for (const bool cache : {false, true}) {
        ShardRouterOptions opts;
        opts.router_threads = router_threads;
        opts.engine.threads = engine_threads;
        opts.engine.enable_cache = cache;
        ShardRouter router(sharded, opts);
        runs.push_back(router.ExecuteBatch(batch));
      }
    }
  }
  const auto& reference = runs.front();
  for (size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    ASSERT_EQ(runs[r].size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      EXPECT_EQ(runs[r][i].status.ok(), reference[i].status.ok());
      ASSERT_EQ(runs[r][i].pnn.size(), reference[i].pnn.size());
      for (size_t k = 0; k < reference[i].pnn.size(); ++k) {
        EXPECT_EQ(runs[r][i].pnn[k].id, reference[i].pnn[k].id);
        EXPECT_EQ(runs[r][i].pnn[k].probability, reference[i].pnn[k].probability);
      }
      EXPECT_EQ(runs[r][i].answer_ids, reference[i].answer_ids);
      ASSERT_EQ(runs[r][i].partitions.size(), reference[i].partitions.size());
      for (size_t k = 0; k < reference[i].partitions.size(); ++k) {
        EXPECT_EQ(runs[r][i].partitions[k].object_count,
                  reference[i].partitions[k].object_count);
        EXPECT_EQ(runs[r][i].partitions[k].region.lo.x,
                  reference[i].partitions[k].region.lo.x);
        EXPECT_EQ(runs[r][i].partitions[k].region.hi.y,
                  reference[i].partitions[k].region.hi.y);
      }
      EXPECT_EQ(runs[r][i].cell_summary.area, reference[i].cell_summary.area);
      EXPECT_EQ(runs[r][i].cell_summary.num_leaves,
                reference[i].cell_summary.num_leaves);
    }
  }
}

TEST(ShardedEquivalenceTest, AggregateStatsMergeShardCounters) {
  const auto sharded = BuildSharded(600, 29, 4);
  ShardRouter router(sharded);
  const Stats before = sharded.AggregateStats();

  const auto points = datagen::TrajectoryQueryPoints(100, sharded.domain(), 30.0, 47);
  (void)router.ExecuteBatch(PointBatch(points));

  const Stats after = sharded.AggregateStats();
  // Query-side leaf I/O and cache lookups were billed to the shards'
  // private Stats and surface through the aggregate.
  EXPECT_GT(after.Get(Ticker::kUvIndexLeafReads), before.Get(Ticker::kUvIndexLeafReads));
  EXPECT_GT(after.Get(Ticker::kQueryCacheHits) + after.Get(Ticker::kQueryCacheMisses),
            0u);
}

TEST(ShardedEquivalenceTest, StageOneHonoursKernelSwitch) {
  // The sharded build's global stage 1 must run the kernel the caller set
  // on diagram.cr, exactly as an unsharded build does. Basic bills one
  // kEnvelopeInsertions per envelope insertion the kernel performs, and
  // the batch prefilter skips most of them, so the two kernels bill
  // different counts.
  const size_t n = 250;
  const uint64_t seed = 97;
  const auto opts = DataOptions(n, seed);
  const std::vector<geom::Point> points =
      datagen::TrajectoryQueryPoints(80, datagen::DomainFor(opts), 40.0, 5);
  std::vector<std::vector<query::QueryResult>> answers;
  std::vector<uint64_t> insertions;
  for (geom::KernelMode kernel : {geom::KernelMode::kScalar, geom::KernelMode::kBatch}) {
    SCOPED_TRACE(geom::KernelModeName(kernel));
    ShardedUVDiagramOptions options;
    options.num_shards = 4;
    options.diagram.method = core::BuildMethod::kBasic;
    options.diagram.build_threads = 1;
    options.diagram.cr.kernel_mode = kernel;
    options.diagram.index.kernel_mode = kernel;

    Stats unsharded_stats;
    (void)core::UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts),
                                 options.diagram, &unsharded_stats)
        .ValueOrDie();
    const auto sharded = ShardedUVDiagram::Build(datagen::GenerateUniform(opts),
                                                 datagen::DomainFor(opts), options)
                             .ValueOrDie();
    insertions.push_back(sharded.AggregateStats().Get(Ticker::kEnvelopeInsertions));
    EXPECT_EQ(insertions.back(), unsharded_stats.Get(Ticker::kEnvelopeInsertions));
    ShardRouter router(sharded);
    answers.push_back(router.ExecuteBatch(PointBatch(points)));
  }
  EXPECT_GT(insertions[0], insertions[1]);
  ExpectPointAnswersIdentical(answers[0], answers[1]);
}

}  // namespace
}  // namespace shard
}  // namespace uvd
