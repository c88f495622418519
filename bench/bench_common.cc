#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/timer.h"
#include "geom/batch/kernels.h"

namespace uvd {
namespace bench {

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("UVD_BENCH_SCALE");
    if (env == nullptr) return 0.2;
    const double v = std::atof(env);
    return std::clamp(v > 0 ? v : 0.2, 0.01, 10.0);
  }();
  return scale;
}

size_t ScaledCount(size_t paper_count) {
  return std::max<size_t>(500, static_cast<size_t>(paper_count * Scale()));
}

double SimulatedIoMs() {
  static const double latency = [] {
    const char* env = std::getenv("UVD_SIM_IO_MS");
    if (env == nullptr) return 5.0;
    const double v = std::atof(env);
    return std::clamp(v, 0.0, 100.0);
  }();
  return latency;
}

std::vector<size_t> SizeSweep() {
  std::vector<size_t> sizes;
  for (size_t paper_n = 10000; paper_n <= 80000; paper_n += 10000) {
    sizes.push_back(ScaledCount(paper_n));
  }
  return sizes;
}

QueryBenchFlags ParseQueryBenchFlags(int argc, char** argv) {
  QueryBenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_value = [&arg](const char* prefix, int* out) {
      const size_t len = std::string(prefix).size();
      if (arg.compare(0, len, prefix) != 0) return false;
      *out = std::atoi(arg.c_str() + len);
      return true;
    };
    if (int_value("--query_threads=", &flags.query_threads)) continue;
    if (int_value("--batch_size=", &flags.batch_size)) continue;
    if (arg == "--smoke") flags.smoke = true;
  }
  flags.batch_size = std::max(1, flags.batch_size);
  return flags;
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("UVD_BENCH_SCALE=%.2f (paper |O| scaled by this factor)\n", Scale());
  std::printf("UVD_SIM_IO_MS=%.1f (simulated disk latency charged per page read)\n",
              SimulatedIoMs());
  std::printf("==============================================================\n");
}

namespace {

/// Value of `flag <v>` or `flag=<v>`; the empty string when absent.
std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, prefix.size(), prefix) == 0) return arg.substr(prefix.size());
    if (arg == flag && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string ParseJsonPath(int argc, char** argv) { return FlagValue(argc, argv, "--json"); }

std::string ParseRev(int argc, char** argv) { return FlagValue(argc, argv, "--rev"); }

JsonReport::JsonReport(std::string bench_name, std::string rev)
    : bench_name_(std::move(bench_name)), rev_(std::move(rev)) {}

void JsonReport::BeginRecord() { records_.emplace_back(); }

void JsonReport::Add(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  records_.back().emplace_back(key, buf);
}

void JsonReport::Add(const std::string& key, int64_t value) {
  records_.back().emplace_back(key, std::to_string(value));
}

void JsonReport::Add(const std::string& key, const std::string& value) {
  records_.back().emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void JsonReport::AddRaw(const std::string& key, const std::string& json_value) {
  records_.back().emplace_back(key, json_value);
}

bool JsonReport::WriteTo(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write JSON report to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %.6g,\n",
               JsonEscape(bench_name_).c_str(), Scale());
  // UVD_BENCH_COMPILER and UVD_BENCH_BUILD_TYPE come from CMake.
  std::fprintf(f,
               "  \"nproc\": %u,\n  \"compiler\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n  \"simd\": \"%s\",\n",
               std::thread::hardware_concurrency(), JsonEscape(UVD_BENCH_COMPILER).c_str(),
               JsonEscape(UVD_BENCH_BUILD_TYPE).c_str(),
               geom::batch::SimdEnabled() ? geom::batch::SimdIsa() : "none");
  if (!rev_.empty()) std::fprintf(f, "  \"rev\": \"%s\",\n", JsonEscape(rev_).c_str());
  std::fprintf(f, "  \"records\": [");
  for (size_t r = 0; r < records_.size(); ++r) {
    std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
    for (size_t k = 0; k < records_[r].size(); ++k) {
      std::fprintf(f, "%s\"%s\": %s", k == 0 ? "" : ", ",
                   JsonEscape(records_[r][k].first).c_str(),
                   records_[r][k].second.c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("JSON report written to %s\n", path.c_str());
  return true;
}

core::UVDiagram BuildDiagram(std::vector<uncertain::UncertainObject> objects,
                             const geom::Box& domain, core::UVDiagramOptions options,
                             Stats* stats, double* build_seconds) {
  // The paper's evaluation is single-threaded: figure benches that leave
  // build_threads at its default (hardware concurrency) get the serial
  // build so T_c and the stage breakdowns keep the paper's semantics.
  // Benches measuring the parallel pipeline pass an explicit count.
  if (options.build_threads <= 0) options.build_threads = 1;
  Timer timer;
  auto diagram =
      core::UVDiagram::Build(std::move(objects), domain, options, stats).ValueOrDie();
  if (build_seconds != nullptr) *build_seconds = timer.ElapsedSeconds();
  return diagram;
}

PhaseTotals TracePhases(const std::function<void()>& fn) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  obs::TraceRecorder::SetEnabled(true);
  fn();
  obs::TraceRecorder::SetEnabled(false);
  PhaseTotals totals = recorder.PhaseTotals();
  recorder.Clear();
  return totals;
}

namespace {

/// The `category`/{index,retrieval,computation} spans of one PNN path.
PnnPhases PnnPhasesOf(PhaseTotals totals, const std::string& category) {
  PnnPhases p;
  p.index_s = totals[category + "/index"].seconds();
  p.retrieval_s = totals[category + "/retrieval"].seconds();
  p.computation_s = totals[category + "/computation"].seconds();
  return p;
}

}  // namespace

PnnWorkloadResult MeasurePnn(const core::UVDiagram& diagram,
                             const std::vector<geom::Point>& queries) {
  PnnWorkloadResult r;
  Stats& stats = diagram.stats();
  const double n = static_cast<double>(queries.size());

  stats.Reset();
  size_t answers = 0;
  Timer uv_timer;
  r.uv_phases = PnnPhasesOf(TracePhases([&] {
                              for (const geom::Point& q : queries) {
                                answers += diagram.QueryPnn(q).ValueOrDie().size();
                              }
                            }),
                            "pnn");
  r.uv_cpu_ms = uv_timer.ElapsedMillis() / n;
  r.uv_leaf_io = static_cast<double>(stats.Get(Ticker::kUvIndexLeafReads)) / n;
  r.uv_object_io = static_cast<double>(stats.Get(Ticker::kPageReads) -
                                       stats.Get(Ticker::kUvIndexLeafReads)) /
                   n;
  r.avg_answers = static_cast<double>(answers) / n;

  stats.Reset();
  Timer rt_timer;
  r.rtree_phases = PnnPhasesOf(TracePhases([&] {
                                 for (const geom::Point& q : queries) {
                                   UVD_CHECK(diagram.QueryPnnWithRtree(q).ok());
                                 }
                               }),
                               "rtree_pnn");
  r.rtree_cpu_ms = rt_timer.ElapsedMillis() / n;
  r.rtree_leaf_io = static_cast<double>(stats.Get(Ticker::kRtreeLeafReads)) / n;
  r.rtree_object_io = static_cast<double>(stats.Get(Ticker::kPageReads) -
                                          stats.Get(Ticker::kRtreeLeafReads)) /
                      n;

  // Charge simulated disk latency: leaf reads belong to the index phase,
  // object-record reads to the retrieval phase (Fig. 6(c) components).
  const double lat_s = SimulatedIoMs() * 1e-3;
  r.uv_ms = r.uv_cpu_ms + (r.uv_leaf_io + r.uv_object_io) * SimulatedIoMs();
  r.rtree_ms =
      r.rtree_cpu_ms + (r.rtree_leaf_io + r.rtree_object_io) * SimulatedIoMs();
  r.uv_phases.index_s += r.uv_leaf_io * n * lat_s;
  r.uv_phases.retrieval_s += r.uv_object_io * n * lat_s;
  r.rtree_phases.index_s += r.rtree_leaf_io * n * lat_s;
  r.rtree_phases.retrieval_s += r.rtree_object_io * n * lat_s;
  return r;
}

}  // namespace bench
}  // namespace uvd
