// Shard load balance of the median cuts on {uniform, clustered 10:1} data
// at a fixed shard count, reporting per-shard object / replica / leaf
// imbalance plus routed throughput and the per-shard query-share imbalance
// — the hot-shard diagnosis bench. The query stream is data-following
// (probes cluster around object centers, the moving-NN skew of Ali et
// al.), so a hot shard shows up as both an object and a query-share
// outlier. Prints each deployment's BalanceReportString(); every
// deployment's PNN answers are digest-checked bitwise-identical to the
// unsharded baseline (UVD_CHECK) — the cuts must never change answers.
//
// Flags (see bench_common.h): --query_threads=N (per-shard engine workers,
// default 1) --batch_size=N --smoke
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

namespace {

using namespace uvd;

double Imbalance(const std::vector<size_t>& counts) {
  size_t total = 0, max_count = 0;
  for (const size_t c : counts) {
    total += c;
    max_count = std::max(max_count, c);
  }
  const double mean =
      counts.empty() ? 0.0
                     : static_cast<double>(total) / static_cast<double>(counts.size());
  return mean > 0.0 ? static_cast<double>(max_count) / mean : 0.0;
}

/// Data-following PNN stream: each probe is a Gaussian step off a random
/// object's center, clamped to the domain — query traffic goes where the
/// data is, so data skew becomes query skew.
query::QueryBatch DataFollowingBatch(
    const std::vector<uncertain::UncertainObject>& objects,
    const geom::Box& domain, int count, uint64_t seed) {
  Rng rng(seed);
  query::QueryBatch batch;
  batch.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const geom::Point& c =
        objects[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(objects.size()) - 1))]
            .center();
    batch.push_back(query::Query::Pnn(
        {std::clamp(rng.Gaussian(c.x, 100.0), domain.lo.x, domain.hi.x),
         std::clamp(rng.Gaussian(c.y, 100.0), domain.lo.y, domain.hi.y)}));
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uvd::bench;

  const QueryBenchFlags flags = ParseQueryBenchFlags(argc, argv);

  PrintBanner("bench_shard_balance — median shard cuts vs data skew",
              "Fig. 7(g) skew, border regions per Ali et al.");

  const int num_shards = flags.smoke ? 4 : 8;
  datagen::DatasetOptions data;
  data.count = flags.smoke ? 500 : ScaledCount(8000);
  data.seed = 42;
  const geom::Box domain = datagen::DomainFor(data);
  const int batch_size = flags.smoke ? 300 : flags.batch_size;

  std::printf("|O| = %zu, K = %d shards, batch = %d data-following PNN "
              "probes\n\n",
              data.count, num_shards, batch_size);
  std::printf("%10s %8s %8s %9s %8s %10s %8s %10s\n", "dataset", "build s", "obj imb",
              "replicas", "leaf imb", "queries/s", "qsh imb", "identical");

  bool all_identical = true;
  std::string balance_reports;
  for (const bool clustered : {false, true}) {
    const auto objects =
        clustered ? datagen::GenerateClusters(
                        data, {{{2500.0, 2500.0}, 600.0, 10.0},
                               {{7500.0, 7500.0}, 600.0, 1.0}})
                  : datagen::GenerateUniform(data);
    const query::QueryBatch batch =
        DataFollowingBatch(objects, domain, batch_size, clustered ? 9 : 7);

    Stats baseline_stats;
    core::UVDiagramOptions diagram_options;
    diagram_options.build_threads = ThreadPool::DefaultThreads();
    const core::UVDiagram baseline =
        BuildDiagram(objects, domain, diagram_options, &baseline_stats);
    query::QueryEngine baseline_engine(baseline, [] {
      query::QueryEngineOptions o;
      o.threads = 1;
      return o;
    }());
    const uint64_t reference_hash =
        query::DigestPointAnswers(baseline_engine.ExecuteBatch(batch));

    shard::ShardedUVDiagramOptions options;
    options.num_shards = num_shards;
    options.diagram.build_threads = ThreadPool::DefaultThreads();
    Timer build_timer;
    auto sharded = shard::ShardedUVDiagram::Build(objects, domain, options).ValueOrDie();
    const double build_seconds = build_timer.ElapsedSeconds();

    std::vector<size_t> shard_objects, shard_leaves;
    size_t registrations = 0;  // the "replicas" column: registrations / |O|
    for (const auto& b : sharded.BalanceReport()) {
      shard_objects.push_back(b.objects);
      shard_leaves.push_back(b.leaves);
      registrations += b.objects;
    }

    // Query-share skew: how unevenly the batch's point probes land on the
    // shards under half-open ownership.
    std::vector<size_t> shard_queries(sharded.num_shards(), 0);
    for (const auto& q : batch) {
      ++shard_queries[static_cast<size_t>(sharded.ShardIndexForPoint(q.point))];
    }

    shard::ShardRouterOptions router_options;
    router_options.engine.threads = flags.query_threads > 0 ? flags.query_threads : 1;
    shard::ShardRouter router(sharded, router_options);
    Timer timer;
    const auto results = router.ExecuteBatch(batch);
    const double seconds = timer.ElapsedSeconds();

    const bool identical = query::DigestPointAnswers(results) == reference_hash;
    all_identical = all_identical && identical;
    std::printf("%10s %8.2f %8.2f %8.2fx %8.2f %10.1f %8.2f %10s\n",
                clustered ? "clustered" : "uniform", build_seconds,
                Imbalance(shard_objects),
                static_cast<double>(registrations) / static_cast<double>(data.count),
                Imbalance(shard_leaves), static_cast<double>(batch.size()) / seconds,
                Imbalance(shard_queries), identical ? "yes" : "NO");
    balance_reports += std::string(clustered ? "clustered" : "uniform") + ":\n" +
                       sharded.BalanceReportString();
  }
  std::printf("\n%s", balance_reports.c_str());

  std::printf("\nanswers bitwise-identical to the unsharded baseline on both "
              "datasets: %s\n",
              all_identical ? "yes" : "NO — SHARDING CHANGED ANSWERS");
  UVD_CHECK(all_identical) << "sharding changed query answers";
  return 0;
}
