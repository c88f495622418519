// Cold-start serving bench (tentpole PR: persistent page store): builds a
// file-backed diagram, checkpoints and closes it, then reopens COLD with a
// buffer pool deliberately smaller than the file and serves a PNN workload
// from disk. Reports the build/checkpoint/reopen wall times, the file
// footprint, and the pool's hit/miss/eviction tickers plus the measured
// page-read latency histogram (MetricsRegistry export riding in the
// --json record). Asserts — in --smoke mode on every ctest run — that the
// cold-served answers are bitwise-identical to the in-RAM build's.
//
// Flags: --smoke (tiny dataset, CI), --pool_pages=N (default: 1/8 of the
// file), --json <path>.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/workload.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "query/query_batch.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "storage/file_page_manager.h"

namespace uvd {
namespace bench {
namespace {

query::QueryBatch MakeBatch(const geom::Box& domain, int count) {
  query::QueryBatch batch;
  const auto points = datagen::TrajectoryQueryPoints(
      count, domain, /*step_length=*/domain.Width() / 400.0, /*seed=*/11);
  batch.reserve(points.size() * 2);
  for (const auto& p : points) {
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

uint64_t Serve(const core::UVDiagram& diagram, const query::QueryBatch& batch,
               double* seconds) {
  query::QueryEngine engine(diagram);
  Timer timer;
  const auto results = engine.ExecuteBatch(batch);
  *seconds = timer.ElapsedSeconds();
  return query::DigestPointAnswers(results);
}

int Run(int argc, char** argv) {
  const QueryBenchFlags flags = ParseQueryBenchFlags(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  size_t pool_flag = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pool_pages=", 13) == 0) {
      pool_flag = static_cast<size_t>(std::atoll(argv[i] + 13));
    }
  }

  PrintBanner("bench_cold_start — persistent store: build, reopen, serve",
              "persistence extension (ROADMAP): durable UV-index serving, "
              "docs/STORAGE.md");

  datagen::DatasetOptions data;
  data.count = flags.smoke ? 500 : ScaledCount(10000);
  data.seed = 23;
  const geom::Box domain = datagen::DomainFor(data);
  const query::QueryBatch batch = MakeBatch(domain, flags.smoke ? 150 : 1000);
  const std::string path = "/tmp/uvd_bench_cold_start.uvpf";
  std::remove(path.c_str());

  // Reference: the in-RAM build every persistent answer must match.
  Stats ram_stats;
  core::UVDiagramOptions options;
  options.build_threads = ThreadPool::DefaultThreads();
  double ram_serve_s = 0;
  uint64_t want = 0;
  {
    const core::UVDiagram ram = BuildDiagram(datagen::GenerateUniform(data),
                                             domain, options, &ram_stats);
    want = Serve(ram, batch, &ram_serve_s);
  }

  // Phase 1: build straight into the paged file, checkpoint, close.
  Timer build_timer;
  core::UVDiagramOptions file_options = options;
  file_options.storage_path = path;
  Stats build_stats;
  uint64_t file_pages = 0, file_bytes = 0;
  double build_s = 0, close_s = 0;
  {
    core::UVDiagram built = BuildDiagram(datagen::GenerateUniform(data),
                                         domain, file_options, &build_stats);
    build_s = build_timer.ElapsedSeconds();
    file_pages = built.page_manager().num_pages();
    file_bytes = built.page_manager().bytes_on_disk();
    Timer close_timer;
    UVD_CHECK_OK(built.CloseStorage());
    close_s = close_timer.ElapsedSeconds();
  }

  // Phase 2: cold reopen with a pool smaller than the file.
  const size_t pool_pages =
      pool_flag != 0 ? pool_flag
                     : std::max<size_t>(8, static_cast<size_t>(file_pages) / 8);
  UVD_CHECK(pool_pages < file_pages)
      << "cold-start bench needs a pool smaller than the file";
  core::UVDiagramOptions open_options;
  open_options.buffer_pool_pages = pool_pages;
  obs::SetMetricsEnabled(true);  // measured page-read latency histogram
  Timer open_timer;
  auto reopened = core::UVDiagram::Open(path, open_options).ValueOrDie();
  const double open_s = open_timer.ElapsedSeconds();

  obs::MetricsRegistry registry;
  reopened.file_page_manager()->RegisterMetrics(&registry, "cold");
  registry.RegisterStats("cold.stats", &reopened.stats());

  // Phase 3: serve the larger-than-pool workload cold.
  double cold_serve_s = 0;
  const uint64_t got = Serve(reopened, batch, &cold_serve_s);
  obs::SetMetricsEnabled(false);

  const auto* pool = reopened.file_page_manager()->pool();
  UVD_CHECK(pool != nullptr);
  const uint64_t hits = pool->hits(), misses = pool->misses(),
                 evictions = pool->evictions();

  std::printf("|O| = %zu, %zu queries; file: %llu pages (%.1f MiB), pool: %zu "
              "pages\n\n",
              data.count, batch.size(),
              static_cast<unsigned long long>(file_pages),
              static_cast<double>(file_bytes) / (1024.0 * 1024.0), pool_pages);
  std::printf("%-28s %10s\n", "phase", "seconds");
  std::printf("%-28s %10.3f\n", "build+write (file-backed)", build_s);
  std::printf("%-28s %10.3f\n", "checkpoint+close", close_s);
  std::printf("%-28s %10.3f\n", "cold reopen", open_s);
  std::printf("%-28s %10.3f\n", "serve cold (through pool)", cold_serve_s);
  std::printf("%-28s %10.3f\n", "serve hot (in-RAM build)", ram_serve_s);
  std::printf("\npool: %llu hits, %llu misses, %llu evictions (hit rate "
              "%.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(evictions),
              hits + misses > 0
                  ? 100.0 * static_cast<double>(hits) /
                        static_cast<double>(hits + misses)
                  : 0.0);
  std::printf("answers bitwise-identical to in-RAM build: %s\n",
              got == want ? "yes" : "NO — PERSISTENCE VIOLATION");
  UVD_CHECK(got == want) << "cold-served answers diverged from the in-RAM "
                            "build (digest mismatch)";
  UVD_CHECK(misses > pool_pages)
      << "workload did not exceed the pool (not a cold-start measurement)";

  if (!json_path.empty()) {
    JsonReport report("bench_cold_start", ParseRev(argc, argv));
    report.BeginRecord();
    report.Add("objects", static_cast<int64_t>(data.count));
    report.Add("queries", static_cast<int64_t>(batch.size()));
    report.Add("file_pages", static_cast<int64_t>(file_pages));
    report.Add("file_bytes", static_cast<int64_t>(file_bytes));
    report.Add("pool_pages", static_cast<int64_t>(pool_pages));
    report.Add("build_seconds", build_s);
    report.Add("checkpoint_close_seconds", close_s);
    report.Add("cold_open_seconds", open_s);
    report.Add("cold_serve_seconds", cold_serve_s);
    report.Add("ram_serve_seconds", ram_serve_s);
    report.Add("pool_hits", static_cast<int64_t>(hits));
    report.Add("pool_misses", static_cast<int64_t>(misses));
    report.Add("pool_evictions", static_cast<int64_t>(evictions));
    report.Add("digest_matches_ram", got == want ? "yes" : "no");
    report.AddRaw("metrics", registry.TakeSnapshot().ToJson());
    report.WriteTo(json_path);
  }

  UVD_CHECK_OK(reopened.CloseStorage());
  std::remove(path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace uvd

int main(int argc, char** argv) { return uvd::bench::Run(argc, argv); }
