// Shared infrastructure for the per-figure benchmark binaries.
//
// Every bench prints the series of the paper figure/table it reproduces.
// Dataset sizes scale with the environment variable UVD_BENCH_SCALE
// (default 0.2): the paper's |O| = 10K..80K sweep runs as 2K..16K by
// default so the whole bench suite finishes in minutes; set
// UVD_BENCH_SCALE=1 for paper-scale runs.
#ifndef UVD_BENCH_BENCH_COMMON_H_
#define UVD_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "obs/trace_recorder.h"

namespace uvd {
namespace bench {

/// Scale factor from UVD_BENCH_SCALE (clamped to [0.01, 10]).
double Scale();

/// Simulated disk latency charged per page read when reporting query
/// times, from UVD_SIM_IO_MS (default 5 ms — a 2010-era SATA seek, the
/// paper's hardware). The storage layer itself is RAM-backed; wall-clock
/// CPU time plus this charge reproduces the paper's disk-bound T_q. Set
/// UVD_SIM_IO_MS=0 for pure CPU numbers.
double SimulatedIoMs();

/// Paper object count scaled down/up; at least 500.
size_t ScaledCount(size_t paper_count);

/// The |O| sweep of Fig. 6-7 (paper: 10K..80K), scaled.
std::vector<size_t> SizeSweep();

/// Number of PNN query points (paper Sec. VI-A: 50).
constexpr int kNumQueries = 50;

/// Flags shared by query benches so any of them can opt into the batched
/// engine without per-bench flag parsing:
///   --query_threads=N   QueryEngine worker count (<= 0: hardware)
///   --batch_size=N      queries per batch
///   --smoke             tiny dataset + reduced sweep (CI smoke runs)
/// Unrecognized arguments are ignored.
struct QueryBenchFlags {
  int query_threads = 0;
  int batch_size = 2000;
  bool smoke = false;
};

/// Parses the flags above from argv.
QueryBenchFlags ParseQueryBenchFlags(int argc, char** argv);

/// Prints the standard bench banner (title + scale + paper reference).
void PrintBanner(const std::string& title, const std::string& paper_ref);

/// Parses a `--json <path>` / `--json=<path>` argument so benches can
/// persist machine-readable history next to the human tables. Returns the
/// empty string when the flag is absent.
std::string ParseJsonPath(int argc, char** argv);

/// Parses a `--rev <sha>` / `--rev=<sha>` argument: the source revision a
/// JSON report is stamped with. Returns the empty string when absent.
std::string ParseRev(int argc, char** argv);

/// Accumulates flat records and writes them as a JSON document:
///   {"bench": "...", "scale": S, "nproc": N, "compiler": "GNU 12.2.0",
///    "build_type": "Release", "simd": "avx2", "rev": "...",
///    "records": [{...}, ...]}
/// The header stamps the machine and build the numbers came from; "simd"
/// is the batch-kernel ISA ("none" when UVD_ENABLE_SIMD is off) and "rev"
/// appears only when given. Values are numbers or strings; no nesting —
/// bench history files are meant to be diffed and plotted, not parsed by
/// the library.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name, std::string rev = "");

  /// Starts a new record; subsequent Add calls fill it.
  void BeginRecord();
  void Add(const std::string& key, double value);
  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, const std::string& value);
  /// Embeds an already-rendered JSON value verbatim (the one sanctioned
  /// nesting: a MetricsRegistry snapshot riding along with a record).
  void AddRaw(const std::string& key, const std::string& json_value);

  /// Writes the document to `path`; a no-op when `path` is empty.
  /// Returns false (after printing a warning) if the file can't be written.
  bool WriteTo(const std::string& path) const;

 private:
  std::string bench_name_;
  std::string rev_;
  // Each record is a list of (key, pre-rendered JSON value) pairs.
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// Builds a UVDiagram over the given objects with external stats, aborting
/// on error (bench context). `build_seconds`, if given, receives the wall
/// time of UVDiagram::Build (T_c).
core::UVDiagram BuildDiagram(std::vector<uncertain::UncertainObject> objects,
                             const geom::Box& domain, core::UVDiagramOptions options,
                             Stats* stats, double* build_seconds = nullptr);

/// Span totals keyed "category/name" (obs::TraceRecorder::PhaseTotals);
/// the span catalog is in docs/OBSERVABILITY.md.
using PhaseTotals = std::map<std::string, obs::PhaseTotal>;

/// Runs `fn` with library tracing on and returns the totals of the spans
/// it recorded: the global recorder is cleared first, and tracing is off
/// again afterwards. Every breakdown column of the benches comes from here.
PhaseTotals TracePhases(const std::function<void()>& fn);

/// The Fig. 6(c) components of one index path, summed over a workload.
struct PnnPhases {
  double index_s = 0;        ///< Index traversal (+ verification).
  double retrieval_s = 0;    ///< Object (pdf) retrieval.
  double computation_s = 0;  ///< Qualification-probability computation.
  double Total() const { return index_s + retrieval_s + computation_s; }
};

/// Result of running the PNN workload through both index paths. Reported
/// times include the simulated disk charge (SimulatedIoMs per page read);
/// the pure CPU component is available separately.
struct PnnWorkloadResult {
  double uv_ms = 0;            ///< mean ms/query via UV-index (CPU + sim I/O)
  double rtree_ms = 0;         ///< mean ms/query via R-tree baseline
  double uv_cpu_ms = 0;        ///< CPU-only portion
  double rtree_cpu_ms = 0;
  double uv_leaf_io = 0;       ///< mean index leaf pages read/query
  double rtree_leaf_io = 0;
  double uv_object_io = 0;     ///< mean object-pdf pages read/query
  double rtree_object_io = 0;
  double avg_answers = 0;      ///< mean answer objects/query
  PnnPhases uv_phases;         ///< pnn/* spans plus the simulated I/O charge
  PnnPhases rtree_phases;      ///< rtree_pnn/* spans plus the charge
};

/// Runs the fixed uniform query workload through both paths and gathers
/// timing + I/O (stats are reset around each phase).
PnnWorkloadResult MeasurePnn(const core::UVDiagram& diagram,
                             const std::vector<geom::Point>& queries);

}  // namespace bench
}  // namespace uvd

#endif  // UVD_BENCH_BENCH_COMMON_H_
