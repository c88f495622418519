// Sharded serving throughput: queries/sec for a moving-NN PNN stream
// routed across K sub-domain UV-indexes (src/shard/), swept over the shard
// count. Each shard's engine runs single-threaded; parallelism comes from
// the router fanning sub-batches across shards, so queries/sec scaling
// with K is the sharding win itself, not intra-shard threading.
//
// Like bench_batched_queries, page reads hit the in-RAM store, so the
// numbers are CPU throughput. Every configuration's PNN answers are checked bitwise-identical (FNV
// hash over ids + probability bits) against an unsharded baseline — the
// border-correctness guarantee under load, cut-line probes included.
//
// Flags (see bench_common.h): --query_threads=N (per-shard engine workers,
// default 1) --batch_size=N --smoke, plus --json <path> to
// persist per-query latency percentiles through BOTH serving paths — the
// unsharded QueryEngine and the ShardRouter per shard count (exact
// cross-shard MergedKindLatency) — with the final configuration's full
// MetricsRegistry snapshot embedded. The committed perf record is
// e2ebench/baseline.json, which times real rather than simulated I/O.
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "obs/metrics_registry.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

namespace {

/// One percentile record from a latency histogram snapshot.
void AddLatencyFields(uvd::bench::JsonReport* report,
                      const uvd::obs::LatencyHistogram::Snapshot& snap) {
  report->Add("count", static_cast<int64_t>(snap.count));
  report->Add("mean_us", snap.mean);
  report->Add("p50_us", static_cast<int64_t>(snap.p50));
  report->Add("p90_us", static_cast<int64_t>(snap.p90));
  report->Add("p99_us", static_cast<int64_t>(snap.p99));
  report->Add("p999_us", static_cast<int64_t>(snap.p999));
  report->Add("max_us", static_cast<int64_t>(snap.max));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uvd;
  using namespace uvd::bench;

  const QueryBenchFlags flags = ParseQueryBenchFlags(argc, argv);

  PrintBanner("bench_sharded_queries — sharded UV-index serving",
              "ROADMAP sharded serving; divide-and-conquer Voronoi "
              "construction (arXiv:0906.2760), border regions per Ali et al.");

  datagen::DatasetOptions data;
  data.count = flags.smoke ? 600 : ScaledCount(10000);
  data.seed = 42;
  const geom::Box domain = datagen::DomainFor(data);
  const auto objects = datagen::GenerateUniform(data);

  // Several concurrent moving-NN clients, interleaved round-robin — the
  // serving workload sharding targets. One walker dwells in one shard at a
  // time; a population of them keeps every shard's sub-batch populated.
  const int batch_size = flags.smoke ? 200 : flags.batch_size;
  const int walkers = flags.smoke ? 2 : 8;
  const query::QueryBatch batch = [&] {
    std::vector<std::vector<geom::Point>> streams;
    const int per_walker = (batch_size + walkers - 1) / walkers;
    for (int w = 0; w < walkers; ++w) {
      streams.push_back(datagen::TrajectoryQueryPoints(
          per_walker, domain, /*step_length=*/domain.Width() / 400.0,
          /*seed=*/7 + static_cast<uint64_t>(w)));
    }
    query::QueryBatch b;
    b.reserve(static_cast<size_t>(per_walker * walkers));
    for (int i = 0; i < per_walker; ++i) {
      for (int w = 0; w < walkers; ++w) {
        b.push_back(query::Query::Pnn(streams[static_cast<size_t>(w)][
            static_cast<size_t>(i)]));
      }
    }
    return b;
  }();

  // Unsharded baseline: the reference answers and the 1-worker timing.
  Stats baseline_stats;
  core::UVDiagramOptions diagram_options;
  diagram_options.build_threads = ThreadPool::DefaultThreads();
  const core::UVDiagram baseline =
      BuildDiagram(objects, domain, diagram_options, &baseline_stats);
  query::QueryEngineOptions baseline_engine_options;
  baseline_engine_options.threads = 1;
  query::QueryEngine baseline_engine(baseline, baseline_engine_options);
  const uint64_t reference_hash =
      query::DigestPointAnswers(baseline_engine.ExecuteBatch(batch));

  const std::string json_path = ParseJsonPath(argc, argv);
  JsonReport report("bench_sharded_queries", ParseRev(argc, argv));
  if (!json_path.empty()) {
    // Unsharded QueryEngine latency record.
    baseline_engine.ResetMetrics();
    (void)baseline_engine.ExecuteBatch(batch);
    report.BeginRecord();
    report.Add("path", std::string("query_engine"));
    report.Add("kind", std::string("pnn"));
    AddLatencyFields(&report,
                     baseline_engine.kind_latency(query::QueryKind::kPnn)
                         .TakeSnapshot());
  }

  std::printf("|O| = %zu, batch = %zu PNN queries from %d interleaved "
              "trajectories, per-shard engine threads = %d\n\n",
              data.count, batch.size(), walkers,
              flags.query_threads > 0 ? flags.query_threads : 1);
  std::printf("%7s %9s %12s %14s %12s %10s\n", "shards", "build s", "queries/s",
              "leaf IO/query", "replicas", "identical");

  const std::vector<int> shard_sweep =
      flags.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  bool all_identical = true;
  double qps_1 = 0, qps_max = 0;
  for (const int k : shard_sweep) {
    shard::ShardedUVDiagramOptions options;
    options.num_shards = k;
    options.diagram.build_threads = ThreadPool::DefaultThreads();
    Timer build_timer;
    auto sharded =
        shard::ShardedUVDiagram::Build(objects, domain, options).ValueOrDie();
    const double build_seconds = build_timer.ElapsedSeconds();

    size_t replicas = 0;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      replicas += sharded.shard(s).object_ids.size();
    }

    shard::ShardRouterOptions router_options;
    router_options.engine.threads = flags.query_threads > 0 ? flags.query_threads : 1;
    shard::ShardRouter router(sharded, router_options);

    Timer timer;
    const auto results = router.ExecuteBatch(batch);
    const double seconds = timer.ElapsedSeconds();

    const Stats stats = sharded.AggregateStats();
    const double n = static_cast<double>(batch.size());
    const double qps = n / seconds;
    const bool identical = query::DigestPointAnswers(results) == reference_hash;
    all_identical = all_identical && identical;
    if (k == shard_sweep.front()) qps_1 = qps;
    if (k == shard_sweep.back()) qps_max = qps;
    std::printf("%7d %9.2f %12.1f %14.2f %11.2fx %10s\n", k,
                build_seconds, qps,
                static_cast<double>(stats.Get(Ticker::kUvIndexLeafReads)) / n,
                static_cast<double>(replicas) / static_cast<double>(data.count),
                identical ? "yes" : "NO");

    if (!json_path.empty()) {
      // Deployment-wide per-query PNN latency: exact merge of every shard
      // engine's histogram.
      report.BeginRecord();
      report.Add("path", std::string("shard_router"));
      report.Add("shards", static_cast<int64_t>(k));
      report.Add("qps", qps);
      AddLatencyFields(
          &report,
          router.MergedKindLatency(query::QueryKind::kPnn).TakeSnapshot());
      if (k == shard_sweep.back()) {
        // The largest deployment also embeds the full unified snapshot —
        // per-shard engines, routed latency, fan-out, imbalance, I/O.
        obs::MetricsRegistry registry;
        router.RegisterMetrics(&registry, "serving");
        report.BeginRecord();
        report.Add("record", std::string("metrics_snapshot"));
        report.Add("shards", static_cast<int64_t>(k));
        report.AddRaw("metrics", registry.TakeSnapshot().ToJson());
      }
    }
  }
  if (!json_path.empty()) report.WriteTo(json_path);

  std::printf("\nspeedup (%d shards vs %d) = %.2fx\n", shard_sweep.back(),
              shard_sweep.front(), qps_1 > 0 ? qps_max / qps_1 : 0.0);
  std::printf("answers bitwise-identical to the unsharded baseline: %s\n",
              all_identical ? "yes" : "NO — BORDER CORRECTNESS VIOLATION");
  UVD_CHECK(all_identical) << "sharded answers differ from the unsharded baseline";
  return 0;
}
