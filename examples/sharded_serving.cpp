// Sharded UV-index serving: partition the domain into K sub-indexes, route
// a query batch through the ShardRouter, and show border correctness at a
// cut line (src/shard/).
//
//   $ ./sharded_serving [--metrics] [--trace-out <file>] [--prom-out <file>]
//
// --metrics prints the deployment's unified MetricsRegistry snapshot
// (JSON) after serving; --trace-out records the batch with phase tracing
// enabled and writes a Chrome trace-event file (open in Perfetto or
// chrome://tracing); --prom-out writes the same snapshot in Prometheus
// text exposition format. All three are passive: answers are identical
// with or without them.
//
// Act one shows the three sharding ideas: per-shard builds from one global
// pruning pass, border-object replication (an object whose UV-cell
// straddles a cut line lives in every touching shard), and half-open
// cut-line ownership so every point is answered by exactly one shard —
// bitwise-identically to an unsharded build.
//
// Act two builds the same median cuts over a skewed 10:1 clustered city:
// the cuts follow the data, and BalanceReport() shows the shards staying
// balanced.
#include <cstdio>
#include <cstring>
#include <string>

#include "datagen/generators.h"
#include "datagen/workload.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "query/query_engine.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"

int main(int argc, char** argv) {
  using namespace uvd;
  bool print_metrics = false;
  std::string trace_out, prom_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) print_metrics = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
    if (std::strcmp(argv[i], "--prom-out") == 0 && i + 1 < argc) {
      prom_out = argv[++i];
    }
  }
  if (!trace_out.empty()) obs::TraceRecorder::SetEnabled(true);

  // The same synthetic city, served from four median-cut shards.
  datagen::DatasetOptions data;
  data.count = 1500;
  data.seed = 4;
  const geom::Box domain = datagen::DomainFor(data);
  const auto objects = datagen::GenerateUniform(data);

  shard::ShardedUVDiagramOptions options;
  options.num_shards = 4;
  auto sharded = shard::ShardedUVDiagram::Build(objects, domain, options).ValueOrDie();

  size_t replicas = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& sh = sharded.shard(s);
    std::printf("shard %zu: box [%.0f, %.0f] x [%.0f, %.0f], %zu objects, "
                "%zu leaves\n",
                s, sh.box.lo.x, sh.box.hi.x, sh.box.lo.y, sh.box.hi.y,
                sh.object_ids.size(), sh.index->num_leaves());
    replicas += sh.object_ids.size();
  }
  std::printf("border replication: %zu registrations for %zu objects "
              "(factor %.2fx)\n\n",
              replicas, objects.size(),
              static_cast<double>(replicas) / static_cast<double>(objects.size()));
  std::printf("per-shard balance (hot shards show up in the imbalance line):\n%s\n",
              sharded.BalanceReportString().c_str());

  // Route a trajectory batch; compare one cut-line probe to an unsharded
  // build to see the border-correctness guarantee in action.
  shard::ShardRouter router(sharded);
  query::QueryBatch batch;
  for (const auto& p : datagen::TrajectoryQueryPoints(300, domain, 20.0, 9)) {
    batch.push_back(query::Query::Pnn(p));
  }
  // The left edge of any shard off the domain's left edge is an interior
  // cut line; probe it halfway up that shard.
  geom::Point cut_probe = domain.Center();
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const geom::Box& box = sharded.shard(s).box;
    if (box.lo.x > domain.lo.x) {
      cut_probe = {box.lo.x, 0.5 * (box.lo.y + box.hi.y)};
      break;
    }
  }
  batch.push_back(query::Query::Pnn(cut_probe));  // exactly on the cut line
  const auto results = router.ExecuteBatch(batch);
  std::printf("routed %zu PNN probes across %zu shards\n", results.size(),
              router.num_shards());
  std::printf("cut-line probe (%.0f, %.0f) owned by shard %d alone\n",
              cut_probe.x, cut_probe.y, sharded.ShardIndexForPoint(cut_probe));

  auto baseline = core::UVDiagram::Build(objects, domain).ValueOrDie();
  const auto reference = baseline.QueryPnn(cut_probe).ValueOrDie();
  const auto& got = results.back().pnn;
  bool identical = got.size() == reference.size();
  for (size_t k = 0; identical && k < got.size(); ++k) {
    identical = got[k].id == reference[k].id &&
                got[k].probability == reference[k].probability;
  }
  std::printf("answers match the unsharded build bitwise: %s "
              "(%zu answer objects)\n\n",
              identical ? "yes" : "NO", got.size());

  // Observability exports: one registry covers the whole deployment.
  if (print_metrics || !prom_out.empty()) {
    obs::MetricsRegistry registry;
    router.RegisterMetrics(&registry, "serving");
    const obs::MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
    if (print_metrics) {
      std::printf("unified metrics snapshot (JSON):\n%s\n",
                  snapshot.ToJson().c_str());
    }
    if (!prom_out.empty()) {
      std::FILE* f = std::fopen(prom_out.c_str(), "w");
      if (f != nullptr) {
        const std::string text = snapshot.ToPrometheus();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("Prometheus metrics written to %s\n", prom_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", prom_out.c_str());
      }
    }
  }
  if (!trace_out.empty()) {
    obs::TraceRecorder::SetEnabled(false);
    const Status st = obs::TraceRecorder::Global().WriteChromeTrace(trace_out);
    if (st.ok()) {
      std::printf("Chrome trace (%zu events) written to %s — open in "
                  "Perfetto or chrome://tracing\n",
                  obs::TraceRecorder::Global().event_count(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    }
  }

  // Act two: the same median cuts over a 10:1 clustered city follow the
  // data, so no shard runs hot.
  datagen::DatasetOptions skewed_data;
  skewed_data.count = 1200;
  skewed_data.seed = 8;
  const auto skewed_objects = datagen::GenerateClusters(
      skewed_data, {{{2500.0, 2500.0}, 600.0, 10.0},
                    {{7500.0, 7500.0}, 600.0, 1.0}});
  const auto skewed =
      shard::ShardedUVDiagram::Build(skewed_objects, domain, options).ValueOrDie();
  std::printf("median cuts over a 10:1 clustered city stay balanced:\n%s",
              skewed.BalanceReportString().c_str());
  return identical ? 0 : 1;
}
