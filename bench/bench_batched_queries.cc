// Throughput of the batched query engine (src/query/): queries/sec for a
// moving-NN style PNN stream, swept over worker threads x cache on/off.
//
// Page reads hit the in-RAM store, so the numbers are CPU throughput; the
// disk-bound regime is e2ebench's file-backed workloads. The engine's
// answers are checked bitwise-identical across every configuration
// (thread count and cache setting).
//
// Flags (see bench_common.h): --query_threads=N --batch_size=N --smoke
// plus --json <path> to persist the sweep with an embedded MetricsRegistry
// snapshot, and --overhead-check to assert the observability layer costs
// < 5% throughput (obs fully on vs fully off, answers digest-checked
// identical) instead of running the sweep.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "query/query_engine.h"
#include "query/result_digest.h"

namespace uvd {
namespace bench {
namespace {

struct RunResult {
  double qps = 0;
  double leaf_io_per_query = 0;
  double hit_rate = 0;
  uint64_t hash = 0;
};

RunResult RunBatch(const core::UVDiagram& diagram, const query::QueryBatch& batch,
                   int threads, bool cache) {
  query::QueryEngineOptions opts;
  opts.threads = threads;
  opts.enable_cache = cache;
  query::QueryEngine engine(diagram, opts);

  diagram.stats().Reset();
  Timer timer;
  const auto results = engine.ExecuteBatch(batch);
  const double seconds = timer.ElapsedSeconds();

  RunResult r;
  const double n = static_cast<double>(batch.size());
  r.qps = n / seconds;
  r.leaf_io_per_query =
      static_cast<double>(diagram.stats().Get(Ticker::kUvIndexLeafReads)) / n;
  const double hits = static_cast<double>(diagram.stats().Get(Ticker::kQueryCacheHits));
  const double misses =
      static_cast<double>(diagram.stats().Get(Ticker::kQueryCacheMisses));
  r.hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.hash = query::DigestPointAnswers(results);
  return r;
}

/// Observability overhead smoke: the same engine/batch with obs fully off
/// (metrics + tracing disabled) vs fully on, in back-to-back pairs so
/// thermal/scheduler noise hits both legs of a pair alike; the leg that
/// runs first alternates between pairs. The ratio is the median of the
/// per-pair on/off ratios: on a shared VM the host's speed drifts by 10-20%
/// within one run, which tilts a min-of-N per leg toward whichever leg
/// caught the fastest moment, but not a median of many short pairs. Asserts the
/// on/off ratio stays under the contract's 5% and that answers are
/// digest-identical.
int RunOverheadCheck(const core::UVDiagram& diagram, const query::QueryBatch& batch,
                     int threads) {
  query::QueryEngineOptions opts;
  opts.threads = threads;
  query::QueryEngine engine(diagram, opts);

  const auto time_batch = [&] {
    Timer timer;
    const auto results = engine.ExecuteBatch(batch);
    const double seconds = timer.ElapsedSeconds();
    return std::make_pair(seconds, query::DigestPointAnswers(results));
  };

  // Warm-up: populate the leaf cache and fault in every page so both legs
  // measure steady-state serving.
  (void)time_batch();

  constexpr int kPairs = 201;
  uint64_t off_hash = 0, on_hash = 0;
  std::vector<double> pair_ratios;
  const auto run_leg = [&](bool on) {
    obs::SetMetricsEnabled(on);
    obs::TraceRecorder::SetEnabled(on);
    const auto sample = time_batch();
    (on ? on_hash : off_hash) = sample.second;
    return sample.first;
  };
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = run_leg(on_first);
    const double second = run_leg(!on_first);
    pair_ratios.push_back(on_first ? first / second : second / first);
  }
  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::SetEnabled(false);
  obs::TraceRecorder::Global().Clear();

  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double ratio = pair_ratios[kPairs / 2];
  std::printf("overhead check: obs-on/obs-off median of %d pair ratios %.4f "
              "(budget 1.05)\n",
              kPairs, ratio);
  std::printf("answers identical with obs on/off: %s\n",
              off_hash == on_hash ? "yes" : "NO — DETERMINISM VIOLATION");
  UVD_CHECK(off_hash == on_hash) << "obs toggling changed answers";
  UVD_CHECK(ratio <= 1.05) << "observability overhead above 5%: ratio = " << ratio;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace uvd

int main(int argc, char** argv) {
  using namespace uvd;
  using namespace uvd::bench;

  const QueryBenchFlags flags = ParseQueryBenchFlags(argc, argv);

  PrintBanner("bench_batched_queries — concurrent batched query engine",
              "throughput extension (ROADMAP): moving-NN PNN streams, "
              "cf. Ali et al. probabilistic moving NN queries");

  datagen::DatasetOptions data;
  data.count = flags.smoke ? 600 : ScaledCount(10000);
  data.seed = 42;
  const geom::Box domain = datagen::DomainFor(data);
  auto objects = datagen::GenerateUniform(data);

  Stats stats;
  core::UVDiagramOptions options;
  options.build_threads = ThreadPool::DefaultThreads();
  const core::UVDiagram diagram =
      BuildDiagram(std::move(objects), domain, options, &stats);

  const int batch_size = flags.smoke ? 200 : flags.batch_size;
  const query::QueryBatch batch = [&] {
    query::QueryBatch b;
    const auto points = datagen::TrajectoryQueryPoints(
        batch_size, domain, /*step_length=*/domain.Width() / 400.0, /*seed=*/7);
    b.reserve(points.size());
    for (const auto& p : points) b.push_back(query::Query::Pnn(p));
    return b;
  }();

  const bool overhead_check = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--overhead-check") return true;
    }
    return false;
  }();
  if (overhead_check) {
    const int threads =
        flags.query_threads > 0 ? flags.query_threads : ThreadPool::DefaultThreads();
    return RunOverheadCheck(diagram, batch, threads);
  }

  std::printf("|O| = %zu, batch = %d trajectory PNN queries\n\n", data.count,
              batch_size);

  std::vector<int> thread_sweep =
      flags.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  if (flags.query_threads > 0) thread_sweep = {1, flags.query_threads};

  const std::string json_path = ParseJsonPath(argc, argv);
  JsonReport report("bench_batched_queries", ParseRev(argc, argv));

  std::printf("%8s %7s %12s %14s %10s\n", "threads", "cache", "queries/s",
              "leaf IO/query", "hit rate");
  uint64_t reference_hash = 0;
  bool first = true;
  bool all_identical = true;
  double qps_1t = 0, qps_max_t = 0;
  for (const bool cache : {false, true}) {
    for (const int threads : thread_sweep) {
      const RunResult r = RunBatch(diagram, batch, threads, cache);
      std::printf("%8d %7s %12.1f %14.2f %9.1f%%\n", threads,
                  cache ? "on" : "off", r.qps, r.leaf_io_per_query,
                  100.0 * r.hit_rate);
      if (!json_path.empty()) {
        report.BeginRecord();
        report.Add("threads", static_cast<int64_t>(threads));
        report.Add("cache", std::string(cache ? "on" : "off"));
        report.Add("qps", r.qps);
        report.Add("leaf_io_per_query", r.leaf_io_per_query);
        report.Add("hit_rate", r.hit_rate);
      }
      if (first) {
        reference_hash = r.hash;
        first = false;
      } else if (r.hash != reference_hash) {
        all_identical = false;
      }
      if (!cache) {
        if (threads == 1) qps_1t = r.qps;
        if (threads == thread_sweep.back()) qps_max_t = r.qps;
      }
    }
  }

  if (!json_path.empty()) {
    // One more instrumented run with everything registered, so the report
    // embeds the unified MetricsRegistry snapshot (per-kind latency
    // histograms, cache occupancy, page-read latency, tickers).
    query::QueryEngineOptions opts;
    opts.threads = thread_sweep.back();
    query::QueryEngine engine(diagram, opts);
    diagram.stats().Reset();
    (void)engine.ExecuteBatch(batch);
    obs::MetricsRegistry registry;
    engine.RegisterMetrics(&registry, "engine");
    registry.RegisterHistogram("storage.page.read.latency.us",
                               &diagram.page_manager().read_latency_histogram());
    report.BeginRecord();
    report.Add("record", std::string("metrics_snapshot"));
    report.AddRaw("metrics", registry.TakeSnapshot().ToJson());
    report.WriteTo(json_path);
  }

  std::printf("\nspeedup (%d threads vs 1, cache off) = %.2fx\n",
              thread_sweep.back(), qps_1t > 0 ? qps_max_t / qps_1t : 0.0);
  std::printf("answers bitwise-identical across configs: %s\n",
              all_identical ? "yes" : "NO — DETERMINISM VIOLATION");
  UVD_CHECK(all_identical) << "batch answers differ across thread/cache configs";
  return 0;
}
