// Determinism of the staged build pipeline: for every BuildMethod, both
// stage-1 traversal modes and build_threads in {1, 2, 4, 8},
// RunBuildPipeline must produce a UV-index byte-identical (structure, leaf
// tuples, page layout) to the InsertObject-per-object oracle
// (insert_object_oracle.h), with identical BuildStats,
// identical Stats ticker totals (all of them under kPerAnchor, all but the
// traversal-effort ones under kShared) and identical PNN answers. Also
// covers error propagation out of the worker fan-out.
#include "core/build_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "core/pnn.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "insert_object_oracle.h"
#include "testing/phase_trace.h"

namespace uvd {
namespace core {
namespace {

UVDiagram BuildDiagram(BuildMethod method, int threads, size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  UVDiagramOptions options;
  options.method = method;
  options.build_threads = threads;
  auto diagram = UVDiagram::Build(datagen::GenerateUniform(opts),
                                  datagen::DomainFor(opts), options);
  UVD_CHECK(diagram.ok()) << diagram.status().ToString();
  return std::move(diagram).ValueOrDie();
}

std::vector<uint8_t> Serialized(const UVDiagram& d) {
  std::vector<uint8_t> bytes;
  UVD_CHECK_OK(d.index().SerializeStructure(&bytes));
  return bytes;
}

void ExpectSameBuildStats(const BuildStats& a, const BuildStats& b) {
  // Accumulated in id order on every path, so the sums must match bit for
  // bit — not just approximately.
  EXPECT_EQ(a.i_pruning_ratio, b.i_pruning_ratio);
  EXPECT_EQ(a.c_pruning_ratio, b.c_pruning_ratio);
  EXPECT_EQ(a.avg_cr_objects, b.avg_cr_objects);
  EXPECT_EQ(a.avg_r_objects, b.avg_r_objects);
}

// Traversal WORK tickers are per-session state under TraversalMode::kShared
// — more workers means more sessions, each paying its own warm-up descents
// and leaf decodes (which reach the PageManager, so I/O counts too) — so
// they vary with the worker count by design (build_pipeline.h). Every
// decision-count ticker must still match exactly.
bool IsTraversalEffortTicker(Ticker t) {
  return t == Ticker::kRtreeNodeVisits || t == Ticker::kRtreeLeafReads ||
         t == Ticker::kLeafMemoHits || t == Ticker::kLeafMemoMisses ||
         t == Ticker::kPageReads || t == Ticker::kBufferPoolHits ||
         t == Ticker::kBufferPoolMisses;
}

class BuildPipelineDeterminismTest
    : public ::testing::TestWithParam<std::tuple<BuildMethod, rtree::TraversalMode>> {};

TEST_P(BuildPipelineDeterminismTest, ParallelMatchesSerial) {
  const BuildMethod method = std::get<0>(GetParam());
  const rtree::TraversalMode traversal = std::get<1>(GetParam());
  // Basic is O(n) envelope insertions per object; keep it small.
  const size_t n = method == BuildMethod::kBasic ? 250 : 700;
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = 23;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);

  BuildPipelineOptions options;
  options.method = method;
  options.cr.traversal_mode = traversal;
  options.build_threads = 1;

  Stats oracle_stats;
  BuildStats oracle_build;
  oracle::BuildFixture reference(objects, domain, &oracle_stats);
  reference.InsertEachObject(options, &oracle_stats, &oracle_build);
  const std::vector<uint8_t> oracle_bytes = reference.Serialized();
  // The answer checks below bill query reads to oracle_stats; compare the
  // build's tickers against this snapshot.
  const Stats oracle_tickers(oracle_stats);
  const auto oracle_leaves = oracle::LeafTupleIds(*reference.index);

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Stats stats;
    BuildStats build;
    oracle::BuildFixture f(objects, domain, &stats);
    options.build_threads = threads;
    UVD_CHECK_OK(
        RunBuildPipeline(objects, f.ptrs, *f.tree, domain, options, &*f.index, &build,
                         &stats));

    // Byte-identical index: same quad-tree, same page layout.
    EXPECT_EQ(oracle_bytes, f.Serialized());
    ExpectSameBuildStats(oracle_build, build);
    for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
      const Ticker t = static_cast<Ticker>(i);
      if (traversal == rtree::TraversalMode::kShared && IsTraversalEffortTicker(t)) {
        continue;
      }
      EXPECT_EQ(oracle_tickers.Get(t), stats.Get(t)) << TickerName(t);
    }
    // Same tuples in every leaf; read after the tickers, which the reads bill.
    EXPECT_EQ(oracle_leaves, oracle::LeafTupleIds(*f.index));

    Rng rng(5);
    for (int q = 0; q < 25; ++q) {
      const geom::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      EXPECT_EQ(RetrievePnnAnswerIds(*reference.index, p).ValueOrDie(),
                RetrievePnnAnswerIds(*f.index, p).ValueOrDie())
          << "q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BuildPipelineDeterminismTest,
    ::testing::Combine(::testing::Values(BuildMethod::kBasic, BuildMethod::kICR,
                                         BuildMethod::kIC),
                       ::testing::Values(rtree::TraversalMode::kPerAnchor,
                                         rtree::TraversalMode::kShared)),
    [](const ::testing::TestParamInfo<BuildPipelineDeterminismTest::ParamType>& info) {
      return std::string(BuildMethodName(std::get<0>(info.param))) + "_" +
             rtree::TraversalModeName(std::get<1>(info.param));
    });

TEST(BuildPipelineTest, DefaultThreadsMatchesSerial) {
  // build_threads = 0 (hardware concurrency, whatever it is here) must
  // also reproduce the single-thread index.
  const UVDiagram serial = BuildDiagram(BuildMethod::kIC, 1, 500, 31);
  const UVDiagram parallel = BuildDiagram(BuildMethod::kIC, 0, 500, 31);
  EXPECT_EQ(Serialized(serial), Serialized(parallel));
}

TEST(BuildPipelineTest, Stage2PhaseSplitFitsInsideStage2Wall) {
  UVD_SKIP_WITHOUT_TRACING();
  // The build/stage2_* phases are disjoint intervals inside the
  // build/stage2 span; with four workers every phase runs.
  test::PhaseTrace trace;
  BuildDiagram(BuildMethod::kIC, 4, 900, 59);
  auto phases = trace.Totals();
  uint64_t split_ns = 0;
  for (const char* phase : {"build/stage2_member", "build/stage2_prefix",
                            "build/stage2_route", "build/stage2_subtree",
                            "build/stage2_stitch", "build/stage2_finalize"}) {
    EXPECT_EQ(phases[phase].count, 1u) << phase;
    EXPECT_GT(phases[phase].total_ns, 0u) << phase;
    split_ns += phases[phase].total_ns;
  }
  EXPECT_EQ(phases["build/stage2"].count, 1u);
  EXPECT_LE(split_ns, phases["build/stage2"].total_ns);
  // Likewise stage 1: each object's Algorithm 2 phases nest inside the
  // span of the worker that ran it.
  EXPECT_EQ(phases["cr/seed"].count, 900u);
  EXPECT_EQ(phases["build/stage1_worker"].count, 4u);
  EXPECT_LE(phases["cr/seed"].total_ns + phases["cr/prune"].total_ns,
            phases["build/stage1_worker"].total_ns);
}

TEST(BuildPipelineTest, InsertionErrorAbortsCleanly) {
  // An object whose center lies outside the *index* domain makes stage-2
  // insertion fail; the pipeline must propagate the error and shut its
  // workers down without hanging.
  datagen::DatasetOptions opts;
  opts.count = 120;
  opts.seed = 41;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);

  Stats stats;
  storage::PageManager pm(4096, &stats);
  uncertain::ObjectStore store(&pm);
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
  auto tree = rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie();
  // Shrunken index domain: objects near the far edge fall outside.
  UVIndex index(geom::Box({0, 0}, {5000, 5000}), &pm, {}, &stats);
  BuildPipelineOptions options;
  options.method = BuildMethod::kIC;
  options.build_threads = 4;
  const Status status =
      RunBuildPipeline(objects, ptrs, tree, domain, options, &index, nullptr, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(BuildPipelineTest, RejectsMismatchedInputBeforeSpawningWorkers) {
  datagen::DatasetOptions opts;
  opts.count = 20;
  opts.seed = 43;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);
  Stats stats;
  storage::PageManager pm(4096, &stats);
  uncertain::ObjectStore store(&pm);
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
  auto tree = rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie();
  UVIndex index(domain, &pm, {}, &stats);
  std::vector<uncertain::ObjectPtr> short_ptrs(ptrs.begin(), ptrs.end() - 1);
  BuildPipelineOptions options;
  options.build_threads = 4;
  EXPECT_FALSE(
      RunBuildPipeline(objects, short_ptrs, tree, domain, options, &index, nullptr, &stats)
          .ok());
}

}  // namespace
}  // namespace core
}  // namespace uvd
