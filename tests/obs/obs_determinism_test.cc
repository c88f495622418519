// The observability layer's core contract, digest-asserted: flipping
// metrics and tracing on or off changes NOTHING observable — serialized
// indexes are bitwise-identical and query answers digest-equal — while
// the instrumentation itself only fills when enabled. Runs under TSan in
// CI (spans + histograms recorded from pool workers).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/uv_diagram.h"
#include "core/uv_index_io.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "obs/latency_histogram.h"
#include "obs/trace_recorder.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"
#include "testing/phase_trace.h"

namespace uvd {
namespace {

/// Restores the default observability state (metrics on, tracing off).
class ObsStateGuard {
 public:
  ~ObsStateGuard() {
    obs::SetMetricsEnabled(true);
    obs::TraceRecorder::SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
};

struct LegResult {
  uint64_t answer_digest = 0;
  std::vector<uint8_t> serialized_index;
  uint64_t pnn_latency_count = 0;
};

query::QueryBatch MixedBatch(const geom::Box& domain) {
  query::QueryBatch batch;
  for (const auto& p : datagen::TrajectoryQueryPoints(
           120, domain, /*step_length=*/domain.Width() / 200.0, /*seed=*/11)) {
    batch.push_back(query::Query::Pnn(p));
  }
  batch.push_back(query::Query::UvPartitions(domain));
  batch.push_back(query::Query::CellSummary(3));
  return batch;
}

/// Builds with the full parallel pipeline, queries through a pooled
/// engine, and serializes the index — with observability fully on or
/// fully off.
LegResult RunLeg(bool obs_on) {
  obs::SetMetricsEnabled(obs_on);
  obs::TraceRecorder::SetEnabled(obs_on);

  datagen::DatasetOptions data;
  data.count = 400;
  data.seed = 21;
  const geom::Box domain = datagen::DomainFor(data);
  auto objects = datagen::GenerateUniform(data);

  core::UVDiagramOptions options;
  options.build_threads = 4;  // spans fire in stage-1/stage-2 workers
  auto diagram =
      core::UVDiagram::Build(std::move(objects), domain, options).ValueOrDie();

  query::QueryEngineOptions engine_options;
  engine_options.threads = 4;
  query::QueryEngine engine(diagram, engine_options);
  const auto results = engine.ExecuteBatch(MixedBatch(domain));

  LegResult leg;
  leg.answer_digest = query::DigestPointAnswers(results);
  leg.pnn_latency_count =
      engine.kind_latency(query::QueryKind::kPnn).TotalCount();

  // Serialize into a fresh page manager and capture the raw pages.
  storage::PageManager save_pm;
  const auto handle = core::SaveUvIndex(diagram.index(), &save_pm).ValueOrDie();
  std::vector<uint8_t> page;
  for (uint32_t p = 0; p < handle.page_count; ++p) {
    EXPECT_TRUE(save_pm.Read(handle.first_page + p, &page).ok());
    leg.serialized_index.insert(leg.serialized_index.end(), page.begin(),
                                page.end());
  }

  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::SetEnabled(false);
  return leg;
}

TEST(ObsDeterminismTest, ObsOnAndOffAreBitwiseIdentical) {
  ObsStateGuard guard;
  const LegResult off = RunLeg(/*obs_on=*/false);
  const LegResult on = RunLeg(/*obs_on=*/true);

  // The passive contract: identical answers, identical serialized bytes.
  EXPECT_EQ(off.answer_digest, on.answer_digest);
  ASSERT_EQ(off.serialized_index.size(), on.serialized_index.size());
  EXPECT_EQ(off.serialized_index, on.serialized_index);

  // And the instrumentation itself honors the switch: histograms fill
  // only while metrics are enabled.
  EXPECT_EQ(off.pnn_latency_count, 0u);
  EXPECT_EQ(on.pnn_latency_count, 120u);
#if !defined(UVD_DISABLE_TRACING)
  // Tracing recorded build + query spans during the on-leg.
  EXPECT_GT(obs::TraceRecorder::Global().event_count(), 0u);
#endif
}

TEST(ObsDeterminismTest, TracedBuildIsIdenticalAndTimesEveryBuildPhase) {
  UVD_SKIP_WITHOUT_TRACING();
  ObsStateGuard guard;
  datagen::DatasetOptions data;
  data.count = 900;  // enough for a stage-2 scaffold: every phase runs
  data.seed = 59;
  const geom::Box domain = datagen::DomainFor(data);
  const auto objects = datagen::GenerateUniform(data);
  core::UVDiagramOptions options;
  options.method = core::BuildMethod::kICR;  // ICR also generates r-objects
  options.build_threads = 4;

  const auto serialized = [&] {
    auto diagram = core::UVDiagram::Build(objects, domain, options).ValueOrDie();
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(diagram.index().SerializeStructure(&bytes).ok());
    return bytes;
  };
  const std::vector<uint8_t> untraced = serialized();
  std::map<std::string, obs::PhaseTotal> phases;
  {
    test::PhaseTrace trace;
    EXPECT_EQ(serialized(), untraced);
    shard::ShardedUVDiagramOptions sharded;
    sharded.num_shards = 2;
    ASSERT_TRUE(shard::ShardedUVDiagram::Build(objects, domain, sharded).ok());
    phases = trace.Totals();
  }
  // The build half of the span catalog (docs/OBSERVABILITY.md).
  for (const char* phase :
       {"build/stage1", "build/stage1_worker", "build/robject", "build/stage2",
        "build/stage2_member", "build/stage2_prefix", "build/stage2_route",
        "build/stage2_subtree", "build/stage2_worker", "build/stage2_stitch",
        "build/stage2_finalize", "cr/seed", "cr/prune", "cr/traversal", "cr/kernel",
        "rtree/decode", "shard/build_shard"}) {
    EXPECT_GT(phases[phase].total_ns, 0u) << phase;
  }
}

TEST(ObsDeterminismTest, ShardedAnswersIdenticalAcrossObsToggle) {
  ObsStateGuard guard;
  datagen::DatasetOptions data;
  data.count = 400;
  data.seed = 33;
  const geom::Box domain = datagen::DomainFor(data);
  const auto objects = datagen::GenerateUniform(data);

  shard::ShardedUVDiagramOptions options;
  options.num_shards = 4;
  const query::QueryBatch batch = MixedBatch(domain);

  uint64_t digests[2] = {0, 0};
  for (const bool obs_on : {false, true}) {
    obs::SetMetricsEnabled(obs_on);
    obs::TraceRecorder::SetEnabled(obs_on);
    auto sharded =
        shard::ShardedUVDiagram::Build(objects, domain, options).ValueOrDie();
    shard::ShardRouter router(sharded);
    digests[obs_on ? 1 : 0] = query::DigestPointAnswers(router.ExecuteBatch(batch));
    if (obs_on) {
      // The router-side surfaces filled during the on-leg.
      EXPECT_GT(router.MergedKindLatency(query::QueryKind::kPnn).TotalCount(), 0u);
      EXPECT_GT(router.routed_queries(0) + router.routed_queries(1) +
                    router.routed_queries(2) + router.routed_queries(3),
                0u);
    }
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(ObsDeterminismTest, RoutedLatencyHasOneSamplePerRoutedQuery) {
  // Each query a shard answers is one routed-latency sample (multi-shard
  // kinds once per target shard), so every shard's histogram count equals
  // its routed-query counter, not its number of sub-batches.
  ObsStateGuard guard;
  obs::SetMetricsEnabled(true);
  datagen::DatasetOptions data;
  data.count = 400;
  data.seed = 33;
  const geom::Box domain = datagen::DomainFor(data);
  shard::ShardedUVDiagramOptions options;
  options.num_shards = 4;
  const auto sharded =
      shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data), domain, options)
          .ValueOrDie();
  shard::ShardRouter router(sharded);

  query::QueryBatch batch = MixedBatch(domain);
  batch.push_back(query::Query::AnswerIds(domain.Center()));
  batch.push_back(query::Query::CellSummary(17));
  for (int round = 0; round < 2; ++round) (void)router.ExecuteBatch(batch);

  uint64_t routed = 0;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard_latency(s).TotalCount(), router.routed_queries(s)) << s;
    routed += router.routed_queries(s);
  }
  // The whole-domain range query fanned out to every shard.
  EXPECT_GT(routed, 2 * batch.size());
}

TEST(ObsDeterminismTest, MetricsToggleMidStreamIsSafe) {
  // Toggling while batches run concurrently must stay race-free (TSan) and
  // keep answers stable; counts are simply whatever the sampled-at-batch-
  // start flag admitted.
  ObsStateGuard guard;
  datagen::DatasetOptions data;
  data.count = 300;
  data.seed = 5;
  const geom::Box domain = datagen::DomainFor(data);
  auto diagram =
      core::UVDiagram::Build(datagen::GenerateUniform(data), domain).ValueOrDie();
  query::QueryEngineOptions engine_options;
  engine_options.threads = 4;
  query::QueryEngine engine(diagram, engine_options);
  const query::QueryBatch batch = MixedBatch(domain);

  const uint64_t reference = query::DigestPointAnswers(engine.ExecuteBatch(batch));
  for (int i = 0; i < 6; ++i) {
    obs::SetMetricsEnabled(i % 2 == 0);
    obs::TraceRecorder::SetEnabled(i % 3 == 0);
    EXPECT_EQ(query::DigestPointAnswers(engine.ExecuteBatch(batch)), reference);
  }
}

}  // namespace
}  // namespace uvd
