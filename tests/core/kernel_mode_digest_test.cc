// Determinism contract of the batch kernel layer (geom/batch/): for every
// build method, dataset shape and thread count, KernelMode::kBatch must
// produce a serialized UV-index BITWISE-identical to KernelMode::kScalar
// (the oracle), and PNN / answer-id digests must match. SIMD on/off
// equality follows transitively: the scalar path is identical in both
// builds, batch is asserted equal to scalar within each build, and CI runs
// this test in a UVD_ENABLE_SIMD=OFF leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "geom/batch/kernels.h"
#include "query/query_engine.h"
#include "query/result_digest.h"

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

// The kernel switch of both stages: stage 1 on cr, stage 2 on index.
void SetKernelMode(UVDiagramOptions* options, geom::KernelMode mode) {
  options->cr.kernel_mode = mode;
  options->index.kernel_mode = mode;
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

class KernelModeDigestTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(KernelModeDigestTest, BatchMatchesScalarAcrossThreads) {
  const ModeCase mc = GetParam();
  const size_t n = 600;
  const uint64_t seed = 97;

  UVDiagramOptions scalar_options;
  scalar_options.method = mc.method;
  scalar_options.build_threads = 1;
  SetKernelMode(&scalar_options, geom::KernelMode::kScalar);
  const UVDiagram oracle = BuildWith(mc.shape, n, seed, scalar_options);
  const std::vector<uint8_t> oracle_bytes = Serialized(oracle);
  const uint64_t oracle_digest = PnnDigest(oracle, 11);

  for (int threads : {1, 8}) {
    for (geom::KernelMode mode :
         {geom::KernelMode::kScalar, geom::KernelMode::kBatch}) {
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
                   " kernel=" + geom::KernelModeName(mode));
      UVDiagramOptions options;
      options.method = mc.method;
      options.build_threads = threads;
      SetKernelMode(&options, mode);
      const UVDiagram built = BuildWith(mc.shape, n, seed, options);
      EXPECT_EQ(oracle_bytes, Serialized(built));
      EXPECT_EQ(oracle_digest, PnnDigest(built, 11));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndShapes, KernelModeDigestTest,
    ::testing::Values(ModeCase{Shape::kUniform, BuildMethod::kIC, "UniformIC"},
                      ModeCase{Shape::kClustered, BuildMethod::kIC, "ClusteredIC"},
                      ModeCase{Shape::kUniform, BuildMethod::kICR, "UniformICR"},
                      ModeCase{Shape::kClustered, BuildMethod::kICR,
                               "ClusteredICR"}),
    [](const ::testing::TestParamInfo<ModeCase>& info) { return info.param.name; });

TEST(KernelModeDigestTest, BasicMethodMatchesToo) {
  // Basic is O(n^2) envelope insertions — keep it small. This is the path
  // where the batch envelope prefilter skips the most work, so it is the
  // most important bitwise check.
  const size_t n = 220;
  UVDiagramOptions scalar_options;
  scalar_options.method = BuildMethod::kBasic;
  scalar_options.build_threads = 1;
  SetKernelMode(&scalar_options, geom::KernelMode::kScalar);
  const UVDiagram oracle = BuildWith(Shape::kUniform, n, 13, scalar_options);
  UVDiagramOptions options = scalar_options;
  SetKernelMode(&options, geom::KernelMode::kBatch);
  options.build_threads = 8;
  const UVDiagram batch = BuildWith(Shape::kUniform, n, 13, options);
  EXPECT_EQ(Serialized(oracle), Serialized(batch));
  EXPECT_EQ(PnnDigest(oracle, 3), PnnDigest(batch, 3));
}

TEST(KernelModeDigestTest, DecisionTickersMatchScanTickersMayNot) {
  // The batch path must perform the same number of overlap checks and
  // page writes — only the scan-length tickers (kHyperbolaTests,
  // kFourPointTests) and the prefilter-skipped kEnvelopeInsertions may
  // legitimately differ.
  const size_t n = 500;
  Stats scalar_stats, batch_stats;
  UVDiagramOptions options;
  options.build_threads = 1;
  SetKernelMode(&options, geom::KernelMode::kScalar);
  BuildWith(Shape::kUniform, n, 29, options, &scalar_stats);
  SetKernelMode(&options, geom::KernelMode::kBatch);
  BuildWith(Shape::kUniform, n, 29, options, &batch_stats);
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    const Ticker t = static_cast<Ticker>(i);
    if (t == Ticker::kHyperbolaTests || t == Ticker::kFourPointTests ||
        t == Ticker::kEnvelopeInsertions) {
      continue;  // mode-dependent scan lengths; see geom/batch/kernels.h
    }
    EXPECT_EQ(scalar_stats.Get(t), batch_stats.Get(t)) << TickerName(t);
  }
  // The prefilter must actually skip something on this workload, or the
  // batch path has silently degraded to scalar billing.
  EXPECT_LE(batch_stats.Get(Ticker::kEnvelopeInsertions),
            scalar_stats.Get(Ticker::kEnvelopeInsertions));
}

TEST(KernelModeDigestTest, ComputeStage1CandidatesMatches) {
  // The materialized stage-1 entry point yields identical candidate lists
  // for both cr.kernel_mode settings. That ShardedUVDiagram::Build really
  // reaches it with the caller's setting is pinned by
  // ShardedEquivalenceTest.StageOneHonoursKernelSwitch.
  const size_t n = 400;
  const auto objects = MakeObjects(Shape::kClustered, n, 41);
  const geom::Box domain = Domain(n, 41);
  storage::PageManager pm(4096);
  uncertain::ObjectStore store(&pm);
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
  auto tree = rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, nullptr).ValueOrDie();

  std::vector<std::vector<int>> scalar_ids, batch_ids;
  BuildPipelineOptions options;
  options.build_threads = 4;
  options.cr.kernel_mode = geom::KernelMode::kScalar;
  UVD_CHECK_OK(ComputeStage1Candidates(objects, tree, domain, options, &scalar_ids));
  options.cr.kernel_mode = geom::KernelMode::kBatch;
  UVD_CHECK_OK(ComputeStage1Candidates(objects, tree, domain, options, &batch_ids));
  EXPECT_EQ(scalar_ids, batch_ids);
}

}  // namespace
}  // namespace core
}  // namespace uvd
