// Determinism contract of the domain-partitioned parallel stage 2: for
// every tested thread count, frontier depth and dataset shape (uniform,
// the Fig. 7(g) skewed Gaussian clouds, and a tight cloud whose members
// mostly carry more than 32 cr-objects), the serialized UV-index must be
// BITWISE-identical to the InsertObject-per-object oracle
// (insert_object_oracle.h) —
// structure, leaf tuples and page layout — and EVERY Stats ticker must
// match exactly, the pruner-scan-order pair (kHyperbolaTests /
// kFourPointTests) included: residency hints live per (leaf, member)
// (UVIndex::Node::member_hints) and descent gates use a fresh hint per
// check, so the partitioned subtrees replay the serial scan lengths
// verbatim. PNN answers are cross-checked through QueryEngine and
// ShardRouter, the max_nonleaf budget fallback is exercised directly
// through UVIndex::InsertObjectsPartitioned, and the per-shard balance
// report is validated on a skewed cloud.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "insert_object_oracle.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

namespace uvd {
namespace core {
namespace {

enum class Shape { kUniform, kCloud };

std::vector<uncertain::UncertainObject> MakeObjects(Shape shape, size_t n,
                                                    uint64_t seed, double sigma) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return shape == Shape::kUniform ? datagen::GenerateUniform(opts)
                                  : datagen::GenerateGaussianCloud(opts, sigma);
}

geom::Box Domain(size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return datagen::DomainFor(opts);
}

UVDiagram BuildWith(Shape shape, size_t n, uint64_t seed, double sigma,
                    const UVDiagramOptions& options, Stats* stats = nullptr) {
  auto diagram = UVDiagram::Build(MakeObjects(shape, n, seed, sigma),
                                  Domain(n, seed), options, stats);
  UVD_CHECK(diagram.ok()) << diagram.status().ToString();
  return std::move(diagram).ValueOrDie();
}

std::vector<uint8_t> Serialized(const UVDiagram& d) {
  std::vector<uint8_t> bytes;
  UVD_CHECK_OK(d.index().SerializeStructure(&bytes));
  return bytes;
}

uint64_t PnnDigest(const UVDiagram& d, int threads, uint64_t seed) {
  query::QueryEngineOptions options;
  options.threads = threads;
  query::QueryEngine engine(d, options);
  Rng rng(seed);
  query::QueryBatch batch;
  for (int t = 0; t < 40; ++t) {
    const geom::Point p{rng.Uniform(d.domain().lo.x, d.domain().hi.x),
                        rng.Uniform(d.domain().lo.y, d.domain().hi.y)};
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return query::DigestPointAnswers(engine.ExecuteBatch(batch));
}

struct ShapeCase {
  Shape shape;
  double sigma;
  const char* name;
};

class PartitionedDeterminismTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(PartitionedDeterminismTest, MatchesSerialAcrossThreadsAndDepths) {
  const ShapeCase sc = GetParam();
  const size_t n = 700;
  const uint64_t seed = 23;

  const auto objects = MakeObjects(sc.shape, n, seed, sc.sigma);
  oracle::BuildFixture reference(objects, Domain(n, seed), nullptr);
  reference.InsertEachObject(BuildPipelineOptions{}, nullptr, nullptr);
  const std::vector<uint8_t> oracle_bytes = reference.Serialized();
  const auto oracle_leaves = oracle::LeafTupleIds(*reference.index);
  // Answers are compared against the first build, whose bytes match the
  // oracle's like every other build's.
  std::optional<uint64_t> reference_digest;

  for (int threads : {1, 2, 4, 8}) {
    for (int depth : {1, 2, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " depth=" + std::to_string(depth));
      UVDiagramOptions options;
      options.build_threads = threads;
      options.stage2_max_depth = depth;
      const UVDiagram partitioned = BuildWith(sc.shape, n, seed, sc.sigma, options);
      // Byte-identical index: same quad-tree, same leaf tuples, same pages.
      EXPECT_EQ(oracle_bytes, Serialized(partitioned));
      EXPECT_EQ(oracle_leaves, oracle::LeafTupleIds(partitioned.index()));
      EXPECT_EQ(reference.index->num_nonleaf(), partitioned.index().num_nonleaf());
      EXPECT_EQ(reference.index->total_leaf_pages(),
                partitioned.index().total_leaf_pages());
      const uint64_t digest = PnnDigest(partitioned, threads, 7);
      if (!reference_digest) reference_digest = digest;
      EXPECT_EQ(*reference_digest, digest);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionedDeterminismTest,
    ::testing::Values(ShapeCase{Shape::kUniform, 0.0, "Uniform"},
                      ShapeCase{Shape::kCloud, 700.0, "SkewedCloud"},
                      ShapeCase{Shape::kCloud, 1500.0, "MildCloud"}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return info.param.name;
    });

TEST(Stage2PartitionTest, DenseCloudMatchesOracleAcrossThreadsAndKernels) {
  // A tight cloud (sigma 300 at n = 700) gives most members more than 32
  // cr-objects, so Algorithm 5 runs long scans: the SIMD batch kernel
  // under kBatch, the per-edge loop under kScalar. The density guard keeps
  // the case from quietly going sparse.
  const size_t n = 700;
  const uint64_t seed = 23;
  const double sigma = 300.0;
  const auto objects = MakeObjects(Shape::kCloud, n, seed, sigma);
  oracle::BuildFixture reference(objects, Domain(n, seed), nullptr);
  std::vector<std::vector<int>> index_ids;
  UVD_CHECK_OK(ComputeStage1Candidates(objects, *reference.tree, reference.domain,
                                       BuildPipelineOptions{}, &index_ids));
  size_t dense = 0;
  for (const std::vector<int>& ids : index_ids) dense += ids.size() > 32 ? 1 : 0;
  ASSERT_GE(4 * dense, n) << dense << " of " << n << " members have > 32 cr-objects";

  reference.InsertEachObject(BuildPipelineOptions{}, nullptr, nullptr);
  const std::vector<uint8_t> oracle_bytes = reference.Serialized();
  const auto oracle_leaves = oracle::LeafTupleIds(*reference.index);
  for (geom::KernelMode kernel : {geom::KernelMode::kBatch, geom::KernelMode::kScalar}) {
    for (int threads : {2, 4}) {
      SCOPED_TRACE(std::string("kernel=") + geom::KernelModeName(kernel) +
                   " threads=" + std::to_string(threads));
      UVDiagramOptions options;
      options.build_threads = threads;
      options.cr.kernel_mode = kernel;
      options.index.kernel_mode = kernel;
      const UVDiagram partitioned = BuildWith(Shape::kCloud, n, seed, sigma, options);
      EXPECT_EQ(oracle_bytes, Serialized(partitioned));
      EXPECT_EQ(oracle_leaves, oracle::LeafTupleIds(partitioned.index()));
    }
  }
}

TEST(Stage2PartitionTest, IcrPartitionedMatchesSerial) {
  const size_t n = 400;
  UVDiagramOptions serial_options;
  serial_options.method = BuildMethod::kICR;
  serial_options.build_threads = 1;
  const UVDiagram serial = BuildWith(Shape::kUniform, n, 31, 0.0, serial_options);
  UVDiagramOptions options = serial_options;
  options.build_threads = 4;
  const UVDiagram partitioned = BuildWith(Shape::kUniform, n, 31, 0.0, options);
  EXPECT_EQ(Serialized(serial), Serialized(partitioned));
}

TEST(Stage2PartitionTest, EveryTickerMatchesSerial) {
  // Every ticker is exact, the pruner-scan-order pair included: the
  // partitioned build performs the same CheckOverlap tests with the same
  // per-(leaf, member) hint evolution as the serial build, just
  // distributed differently (see uv_index.h). Stage 1 is pinned to the
  // kPerAnchor traversal oracle so its work tickers don't vary with the
  // worker count (build_pipeline.h documents that kShared's do).
  const size_t n = 700;
  Stats serial_stats;
  Stats partitioned_stats;
  UVDiagramOptions serial_options;
  serial_options.build_threads = 1;
  serial_options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  BuildWith(Shape::kUniform, n, 23, 0.0, serial_options, &serial_stats);
  UVDiagramOptions options;
  options.build_threads = 4;
  options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  BuildWith(Shape::kUniform, n, 23, 0.0, options, &partitioned_stats);
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const Ticker t = static_cast<Ticker>(i);
    EXPECT_EQ(serial_stats.Get(t), partitioned_stats.Get(t)) << TickerName(t);
  }
  EXPECT_GT(partitioned_stats.Get(Ticker::kHyperbolaTests), 0u);
}

/// Direct UVIndex-level harness: stage 1 once, then serial InsertObject
/// loop vs InsertObjectsPartitioned on twin indexes over twin page
/// managers, so the serialized structures AND the fallback report can be
/// compared without the diagram facade in the way.
struct TwinBuild {
  std::vector<uint8_t> serial_bytes;
  std::vector<uint8_t> partitioned_bytes;
  Stats serial_stats;
  Stats partitioned_stats;
  UVIndex::PartitionedInsertReport report;
};

TwinBuild BuildTwins(size_t n, const UVIndexOptions& index_options, int threads,
                     int max_depth) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = 59;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);

  storage::PageManager scratch_pm(4096);
  uncertain::ObjectStore scratch_store(&scratch_pm);
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(scratch_store.BulkLoad(objects, &ptrs));
  auto tree = rtree::RTree::BulkLoad(objects, ptrs, &scratch_pm, {100}, nullptr)
                  .ValueOrDie();
  std::vector<std::vector<int>> index_ids;
  BuildPipelineOptions pipeline;
  UVD_CHECK_OK(ComputeStage1Candidates(objects, tree, domain, pipeline, &index_ids));

  const auto regions_of = [&](size_t i) {
    std::vector<geom::Circle> regions;
    regions.reserve(index_ids[i].size());
    for (int id : index_ids[i]) regions.push_back(objects[static_cast<size_t>(id)].region());
    return regions;
  };

  TwinBuild twins;
  {
    storage::PageManager pm(4096);
    UVIndex index(domain, &pm, index_options, &twins.serial_stats);
    for (size_t i = 0; i < n; ++i) {
      UVD_CHECK_OK(index.InsertObject(objects[i].region(), objects[i].id(), ptrs[i],
                                      regions_of(i)));
    }
    UVD_CHECK_OK(index.Finalize());
    UVD_CHECK_OK(index.SerializeStructure(&twins.serial_bytes));
  }
  {
    storage::PageManager pm(4096);
    UVIndex index(domain, &pm, index_options, &twins.partitioned_stats);
    std::vector<UVIndex::BulkInsertItem> items(n);
    for (size_t i = 0; i < n; ++i) {
      items[i] = {objects[i].region(), objects[i].id(), ptrs[i], regions_of(i)};
    }
    ThreadPool pool(threads);
    UVIndex::PartitionedInsertOptions popts;
    popts.threads = threads;
    popts.max_depth = max_depth;
    UVD_CHECK_OK(
        index.InsertObjectsPartitioned(std::move(items), &pool, popts, &twins.report));
    UVD_CHECK_OK(index.FinalizeWith(&pool, threads));
    UVD_CHECK_OK(index.SerializeStructure(&twins.partitioned_bytes));
  }
  return twins;
}

TEST(Stage2PartitionTest, SubtreesActuallyFanOut) {
  const TwinBuild twins = BuildTwins(900, UVIndexOptions{}, 4, 2);
  EXPECT_EQ(twins.serial_bytes, twins.partitioned_bytes);
  EXPECT_FALSE(twins.report.serial_fallback);
  EXPECT_GE(twins.report.subtrees, 4);
  EXPECT_GT(twins.report.parallel_splits, 0u);
  EXPECT_LT(twins.report.prefix_objects, twins.report.total_objects);
}

TEST(Stage2PartitionTest, BudgetBoundFallsBackIdentically) {
  // A max_nonleaf small enough that the optimistic subtree phase splits
  // past it: the stitch's replay must detect the divergence and rebuild
  // serially — same bytes, fallback reported.
  UVIndexOptions index_options;
  index_options.max_nonleaf = 6;  // room for the root scaffold, little more
  const TwinBuild twins = BuildTwins(900, index_options, 4, 1);
  EXPECT_EQ(twins.serial_bytes, twins.partitioned_bytes);
  EXPECT_TRUE(twins.report.serial_fallback);
  // The discarded optimistic phases must not leak into the counters: the
  // fallback unwinds the tickers, and the pruner hints die with the
  // discarded nodes (Node::member_hints), so EVERY ticker — scan-order
  // pair included — replays the serial build exactly.
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const Ticker t = static_cast<Ticker>(i);
    EXPECT_EQ(twins.serial_stats.Get(t), twins.partitioned_stats.Get(t))
        << TickerName(t);
  }
}

TEST(Stage2PartitionTest, RequiresFreshIndex) {
  storage::PageManager pm(4096);
  UVIndex index(geom::Box({0, 0}, {100, 100}), &pm, {});
  UVD_CHECK_OK(index.InsertObject({{10, 10}, 1.0}, 0, 0, {}));
  std::vector<UVIndex::BulkInsertItem> items(1);
  items[0] = {{{20, 20}, 1.0}, 1, 0, {}};
  UVIndex::PartitionedInsertOptions popts;
  const Status status = index.InsertObjectsPartitioned(std::move(items), nullptr, popts);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Stage2PartitionTest, RejectsOutOfDomainCenters) {
  storage::PageManager pm(4096);
  UVIndex index(geom::Box({0, 0}, {100, 100}), &pm, {});
  std::vector<UVIndex::BulkInsertItem> items(1);
  items[0] = {{{200, 200}, 1.0}, 0, 0, {}};
  UVIndex::PartitionedInsertOptions popts;
  const Status status = index.InsertObjectsPartitioned(std::move(items), nullptr, popts);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Stage2PartitionTest, ShardRouterDigestMatchesUnshardedSerial) {
  // K=2 shards on 8 build threads: each shard's stage 2 runs partitioned
  // with 4 workers (the inherited path), and router answers must stay
  // bitwise-identical to the serial unsharded baseline.
  const size_t n = 600;
  const uint64_t seed = 77;
  UVDiagramOptions serial_options;
  serial_options.build_threads = 1;
  const UVDiagram baseline = BuildWith(Shape::kUniform, n, seed, 0.0, serial_options);

  shard::ShardedUVDiagramOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.diagram.build_threads = 8;
  auto sharded_result =
      shard::ShardedUVDiagram::Build(MakeObjects(Shape::kUniform, n, seed, 0.0),
                                     Domain(n, seed), sharded_options);
  UVD_CHECK(sharded_result.ok()) << sharded_result.status().ToString();
  const shard::ShardedUVDiagram sharded = std::move(sharded_result).ValueOrDie();
  shard::ShardRouter router(sharded);

  query::QueryEngine engine(baseline, {});
  Rng rng(5);
  query::QueryBatch batch;
  for (int t = 0; t < 50; ++t) {
    const geom::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  EXPECT_EQ(query::DigestPointAnswers(engine.ExecuteBatch(batch)),
            query::DigestPointAnswers(router.ExecuteBatch(batch)));
}

TEST(Stage2PartitionTest, BalanceReportShowsSkew) {
  const size_t n = 500;
  shard::ShardedUVDiagramOptions options;
  options.num_shards = 4;
  options.diagram.build_threads = 4;
  auto sharded_result = shard::ShardedUVDiagram::Build(
      MakeObjects(Shape::kCloud, n, 41, 600.0), Domain(n, 41), options);
  UVD_CHECK(sharded_result.ok()) << sharded_result.status().ToString();
  const shard::ShardedUVDiagram d = std::move(sharded_result).ValueOrDie();
  const auto report = d.BalanceReport();
  ASSERT_EQ(report.size(), 4u);
  size_t total_registrations = 0;
  size_t max_objects = 0;
  for (const auto& b : report) {
    total_registrations += b.objects;
    max_objects = std::max(max_objects, b.objects);
    EXPECT_GE(b.objects, b.replicas);
    EXPECT_GE(b.leaves, 1u);
    EXPECT_GE(b.leaf_pages, b.leaves);
    EXPECT_GE(b.height, 1);
    EXPECT_GT(b.bytes_on_disk, 0u);
    // Replica consistency with the routing tables.
    for (int id : {0, static_cast<int>(n) - 1}) {
      const auto shards = d.ShardsForObject(id);
      EXPECT_GE(shards.size(), 1u);
    }
  }
  // Every object is registered somewhere; border replicas push the total
  // past n.
  EXPECT_GE(total_registrations, n);
  // A sigma=600 cloud at the domain center is heavily skewed relative to a
  // 2x2 grid mean.
  const double mean = static_cast<double>(total_registrations) / 4.0;
  EXPECT_GT(static_cast<double>(max_objects) / mean, 1.0);
  EXPECT_FALSE(d.BalanceReportString().empty());
}

}  // namespace
}  // namespace core
}  // namespace uvd
