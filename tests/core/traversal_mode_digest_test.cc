// Determinism contract of the shared-traversal layer (rtree/
// traversal_session.h): for every build method, dataset shape and thread
// count, TraversalMode::kShared must produce a serialized
// UV-index BITWISE-identical to TraversalMode::kPerAnchor (the oracle
// that restarts every query from the root), and PNN / answer-id digests
// must match. Mirrors kernel_mode_digest_test for the traversal axis.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "rtree/traversal_session.h"

namespace uvd {
namespace core {
namespace {

enum class Shape { kUniform, kClustered };

std::vector<uncertain::UncertainObject> MakeObjects(Shape shape, size_t n,
                                                    uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  if (shape == Shape::kUniform) return datagen::GenerateUniform(opts);
  return datagen::GenerateGaussianCloud(opts, 700.0);
}

geom::Box Domain(size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return datagen::DomainFor(opts);
}

UVDiagram BuildWith(Shape shape, size_t n, uint64_t seed,
                    const UVDiagramOptions& options, Stats* stats = nullptr) {
  auto diagram =
      UVDiagram::Build(MakeObjects(shape, n, seed), Domain(n, seed), options, stats);
  UVD_CHECK(diagram.ok()) << diagram.status().ToString();
  return std::move(diagram).ValueOrDie();
}

std::vector<uint8_t> Serialized(const UVDiagram& d) {
  std::vector<uint8_t> bytes;
  UVD_CHECK_OK(d.index().SerializeStructure(&bytes));
  return bytes;
}

uint64_t PnnDigest(const UVDiagram& d, uint64_t seed) {
  query::QueryEngine engine(d, {});
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

struct ModeCase {
  Shape shape;
  BuildMethod method;
  const char* name;
};

class TraversalModeDigestTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(TraversalModeDigestTest, SharedMatchesPerAnchorAcrossThreads) {
  const ModeCase mc = GetParam();
  const size_t n = 600;
  const uint64_t seed = 97;

  UVDiagramOptions oracle_options;
  oracle_options.method = mc.method;
  oracle_options.build_threads = 1;
  oracle_options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  const UVDiagram oracle = BuildWith(mc.shape, n, seed, oracle_options);
  const std::vector<uint8_t> oracle_bytes = Serialized(oracle);
  const uint64_t oracle_digest = PnnDigest(oracle, 11);

  for (int threads : {1, 8}) {
    // kPerAnchor across threads, then kShared: n = 600 makes 10 Morton
    // tiles of 64, the last one ragged (600 mod 64 = 24), over 8 workers.
    {
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
                   " traversal=per_anchor");
      UVDiagramOptions options = oracle_options;
      options.build_threads = threads;
      const UVDiagram built = BuildWith(mc.shape, n, seed, options);
      EXPECT_EQ(oracle_bytes, Serialized(built));
      EXPECT_EQ(oracle_digest, PnnDigest(built, 11));
    }
    {
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
                   " traversal=shared");
      UVDiagramOptions options;
      options.method = mc.method;
      options.build_threads = threads;
      options.cr.traversal_mode = rtree::TraversalMode::kShared;
      const UVDiagram built = BuildWith(mc.shape, n, seed, options);
      EXPECT_EQ(oracle_bytes, Serialized(built));
      EXPECT_EQ(oracle_digest, PnnDigest(built, 11));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndShapes, TraversalModeDigestTest,
    ::testing::Values(ModeCase{Shape::kUniform, BuildMethod::kIC, "UniformIC"},
                      ModeCase{Shape::kClustered, BuildMethod::kIC, "ClusteredIC"},
                      ModeCase{Shape::kUniform, BuildMethod::kICR, "UniformICR"},
                      ModeCase{Shape::kClustered, BuildMethod::kICR,
                               "ClusteredICR"}),
    [](const ::testing::TestParamInfo<ModeCase>& info) { return info.param.name; });

TEST(TraversalModeDigestTest, BasicMethodMatchesToo) {
  // Basic skips the R-tree-driven pruning almost entirely, so this mostly
  // pins the seed-region k-NN path through the session.
  const size_t n = 220;
  UVDiagramOptions oracle_options;
  oracle_options.method = BuildMethod::kBasic;
  oracle_options.build_threads = 1;
  oracle_options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  const UVDiagram oracle = BuildWith(Shape::kUniform, n, 13, oracle_options);
  UVDiagramOptions options = oracle_options;
  options.cr.traversal_mode = rtree::TraversalMode::kShared;
  options.build_threads = 8;
  const UVDiagram shared = BuildWith(Shape::kUniform, n, 13, options);
  EXPECT_EQ(Serialized(oracle), Serialized(shared));
  EXPECT_EQ(PnnDigest(oracle, 3), PnnDigest(shared, 3));
}

TEST(TraversalModeDigestTest, DecisionTickersMatchTraversalTickersMayNot) {
  // The shared traversal must make the same pruning DECISIONS — candidate
  // counts, envelope insertions, overlap checks — while its traversal
  // EFFORT (node visits, leaf reads, page I/O, memo counters) is
  // config-dependent by design (see core/build_pipeline.h).
  const size_t n = 500;
  Stats per_anchor_stats, shared_stats;
  UVDiagramOptions options;
  options.method = BuildMethod::kICR;
  options.build_threads = 1;
  options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  BuildWith(Shape::kUniform, n, 29, options, &per_anchor_stats);
  options.cr.traversal_mode = rtree::TraversalMode::kShared;
  BuildWith(Shape::kUniform, n, 29, options, &shared_stats);
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const Ticker t = static_cast<Ticker>(i);
    if (t == Ticker::kRtreeNodeVisits || t == Ticker::kRtreeLeafReads ||
        t == Ticker::kLeafMemoHits || t == Ticker::kLeafMemoMisses ||
        t == Ticker::kPageReads || t == Ticker::kBufferPoolHits ||
        t == Ticker::kBufferPoolMisses) {
      continue;  // traversal-effort tickers; see core/build_pipeline.h
    }
    EXPECT_EQ(per_anchor_stats.Get(t), shared_stats.Get(t)) << TickerName(t);
  }
  // The session must actually reuse work on this workload, or the shared
  // path has silently degraded to per-anchor restarts.
  EXPECT_LT(shared_stats.Get(Ticker::kRtreeNodeVisits),
            per_anchor_stats.Get(Ticker::kRtreeNodeVisits));
}

}  // namespace
}  // namespace core
}  // namespace uvd
