// End-to-end benchmark: one build -> checkpoint -> cold open -> serve pass
// per process, on one of four workloads, through public functions only.
//
//   bench_e2e --workload=NAME --seed=S [--seconds=T] [--trace=0|1]
//             [--rev=SHA] [--json=OUT] [--out-dir=DIR] [--scale=F]
//
// Every workload is file-backed (PagedFile + BufferPool); simulated read
// latency is never set, so the numbers are the program's, not a sleep's.
// Each run first executes an untimed copy of the workload at 1/10 size
// (first-process warm-up changes build times by ~40%), then the measured
// copy, which repeats identical sessions and serving passes and keeps each
// operation's fastest time. --trace=0 reports the end-to-end metrics;
// --trace=1 composes the build and the query path from their public steps,
// times each step with bench-side spans in a private obs::TraceRecorder
// (library tracing stays off) and reports the per-layer metrics. README.md
// in this directory has the metric catalogue and why each workload exists.
//
// The last stdout line is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// Oracle mismatches and non-OK statuses count as failed and make the
// process exit 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/build_pipeline.h"
#include "core/pnn.h"
#include "core/uv_diagram.h"
#include "core/uv_index.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "geom/batch/kernels.h"
#include "obs/trace_recorder.h"
#include "query/query_batch.h"
#include "query/query_cache.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "rtree/rtree.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"
#include "storage/file_page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/qualification.h"

#ifndef UVD_E2E_BUILD_TYPE
#define UVD_E2E_BUILD_TYPE "unknown"
#endif

namespace uvd {
namespace e2e {
namespace {

using SteadyClock = std::chrono::steady_clock;
using query::Query;
using query::QueryBatch;
using query::QueryKind;
using query::QueryResult;
using uncertain::UncertainObject;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// splitmix64: derives independent, reproducible sub-seeds from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ flags

/// The --seconds value the Spec passes and repeats are written for: a
/// full-size run takes about that long on a 4-core machine.
constexpr double kReferenceSeconds = 20.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  double scale = 1.0;  // object and query counts; 0.02 is the smoke size
  std::string rev = "unknown";
  std::string json;
  std::string out_dir = ".";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    std::string key = arg.substr(2), value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "workload") {
      f->workload = value;
    } else if (key == "seed") {
      f->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      f->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      f->trace = value == "1";
    } else if (key == "scale") {
      f->scale = std::atof(value.c_str());
    } else if (key == "rev") {
      f->rev = value;
    } else if (key == "json") {
      f->json = value;
    } else if (key == "out-dir") {
      f->out_dir = value;
    } else {
      return false;
    }
  }
  return !f->workload.empty() && f->seconds > 0.0 && f->scale > 0.0;
}

// -------------------------------------------------------------- workloads

enum class Workload { kUniformPnn, kUniformIdsCold, kCloudTrajectorySharded, kLiveInsertMix };

/// Sizes at --seconds=kReferenceSeconds and --scale=1. Object and query
/// counts and rounds are per session and scale with --scale; at full size
/// every closed-loop query kind has at least 1000 distinct queries (ten
/// beyond the p99) and live_insert_mix at least 300 inserts (15 beyond the
/// p95). --seconds scales the serving passes, or on live_insert_mix, whose
/// serving writes and so cannot be repeated inside a session, the repeats.
struct Spec {
  Workload kind;
  const char* name;
  size_t objects;
  bool cloud;  // Gaussian cloud (sigma 2500, Fig. 7(g)) instead of uniform
  core::BuildMethod method;
  int shards;  // 0: one UVDiagram behind a QueryEngine
  size_t pool_pages;
  int closed_pnn;   // closed-loop PNN queries (uniform points)
  int closed_ids;   // closed-loop answer-ids queries (uniform points)
  int closed_walk;  // closed-loop trajectory probes, PNN/ids alternating
  int batched;      // batched-phase queries
  int rounds;       // live-insert rounds
  int repeats;      // identical set-up + serve sessions per measured run
  int passes;       // identical serving passes per session (read-only workloads)
};

bool SpecFor(const std::string& name, Spec* spec) {
  static const Spec kSpecs[] = {
      {Workload::kUniformPnn, "uniform_pnn", 30000, false, core::BuildMethod::kIC, 0,
       8192, 1000, 2000, 0, 1000, 0, 3, 6},
      {Workload::kUniformIdsCold, "uniform_ids_cold", 40000, false,
       core::BuildMethod::kICR, 0, 64, 1000, 20000, 0, 4000, 0, 3, 4},
      {Workload::kCloudTrajectorySharded, "cloud_trajectory_sharded", 30000, true,
       core::BuildMethod::kIC, 4, 4096, 0, 0, 2000, 2000, 0, 3, 4},
      {Workload::kLiveInsertMix, "live_insert_mix", 10000, false,
       core::BuildMethod::kIC, 0, 4096, 0, 0, 0, 4000, 300, 6, 1},
  };
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

/// `spec` with its counts scaled by `count_scale` and its serving passes
/// (repeats on live_insert_mix) by `time_scale`.
Spec Scaled(const Spec& spec, double count_scale, double time_scale) {
  Spec s = spec;
  const auto count = [&](int n) {
    return n == 0 ? 0 : std::max(8, static_cast<int>(std::lround(n * count_scale)));
  };
  s.objects = std::max<size_t>(
      400, static_cast<size_t>(std::lround(static_cast<double>(spec.objects) * count_scale)));
  s.closed_pnn = count(spec.closed_pnn);
  s.closed_ids = count(spec.closed_ids);
  s.closed_walk = count(spec.closed_walk);
  s.batched = count(spec.batched);
  s.rounds = count(spec.rounds);
  int& timed = spec.kind == Workload::kLiveInsertMix ? s.repeats : s.passes;
  timed = std::max(1, static_cast<int>(std::lround(timed * time_scale)));
  return s;
}

std::vector<UncertainObject> Generate(const Spec& spec, uint64_t seed,
                                      geom::Box* domain) {
  datagen::DatasetOptions data;
  data.count = spec.objects;
  data.seed = SubSeed(seed, 1);
  *domain = datagen::DomainFor(data);
  return spec.cloud ? datagen::GenerateGaussianCloud(data, 2500.0)
                    : datagen::GenerateUniform(data);
}

void AppendUniform(QueryKind kind, int count, const geom::Box& domain, uint64_t seed,
                   QueryBatch* out) {
  for (const geom::Point& p : datagen::UniformQueryPoints(count, domain, seed)) {
    out->push_back(kind == QueryKind::kPnn ? Query::Pnn(p) : Query::AnswerIds(p));
  }
}

/// Interleaved random-waypoint walkers (moving-NN streams); each walker
/// alternates PNN and answer-ids on consecutive steps, starting with
/// either kind by the parity of its index, so any prefix of the stream
/// holds both kinds in equal numbers, give or take one. The walkers move domain
/// width / 400 per step toward random waypoints as the walks of
/// datagen::TrajectoryQueryPoints do. On the skewed cloud a query's cost
/// follows the density where it lands, so the walkers start stratified, one
/// at a random point of each cell of a grid over the domain, and every seed
/// puts the same share of them in the dense core. Over ten seeds the mean
/// squared PNN candidate count of the closed loop (qualification cost grows
/// with the square) spread 1.14x this way, against 1.85x with eight
/// walkers started anywhere.
void AppendWalkers(int count, const geom::Box& domain, uint64_t seed, QueryBatch* out) {
  constexpr int kGrid = 12;
  constexpr size_t kWalkers = kGrid * kGrid;
  const double step = domain.Width() / 400.0;
  Rng rng(seed);
  const auto anywhere = [&] {
    return geom::Point{rng.Uniform(domain.lo.x, domain.hi.x),
                       rng.Uniform(domain.lo.y, domain.hi.y)};
  };
  std::vector<geom::Point> pos, waypoint;
  for (size_t w = 0; w < kWalkers; ++w) {
    pos.push_back({domain.lo.x + (static_cast<double>(w % kGrid) + rng.Uniform(0, 1)) *
                                     domain.Width() / kGrid,
                   domain.lo.y + (static_cast<double>(w / kGrid) + rng.Uniform(0, 1)) *
                                     domain.Height() / kGrid});
    waypoint.push_back(anywhere());
  }
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    const size_t w = i % kWalkers;
    geom::Point& p = pos[w];
    out->push_back((i / kWalkers + w) % 2 == 0 ? Query::Pnn(p) : Query::AnswerIds(p));
    const double dx = waypoint[w].x - p.x, dy = waypoint[w].y - p.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    if (dist <= step) {
      p = waypoint[w];
      waypoint[w] = anywhere();
    } else {
      p.x += dx / dist * step;
      p.y += dy / dist * step;
    }
  }
}

/// Uniform points, PNN and answer-ids alternating.
void AppendAlternating(int count, const geom::Box& domain, uint64_t seed,
                       QueryBatch* out) {
  const auto points = datagen::UniformQueryPoints(count, domain, seed);
  for (size_t i = 0; i < points.size(); ++i) {
    out->push_back(i % 2 == 0 ? Query::Pnn(points[i]) : Query::AnswerIds(points[i]));
  }
}

struct QueryPlan {
  QueryBatch closed;   // closed loop, one query per batch
  QueryBatch batched;  // batches of kBatchSize, back to back
};

/// The queries of one session.
QueryPlan PlanQueries(const Spec& spec, const geom::Box& domain, uint64_t seed) {
  QueryPlan plan;
  switch (spec.kind) {
    case Workload::kUniformPnn:
      AppendUniform(QueryKind::kPnn, spec.closed_pnn, domain, SubSeed(seed, 10), &plan.closed);
      AppendUniform(QueryKind::kAnswerIds, spec.closed_ids, domain, SubSeed(seed, 11),
                    &plan.closed);
      AppendUniform(QueryKind::kPnn, spec.batched, domain, SubSeed(seed, 12), &plan.batched);
      break;
    case Workload::kUniformIdsCold:
      AppendUniform(QueryKind::kPnn, spec.closed_pnn, domain, SubSeed(seed, 11), &plan.closed);
      AppendUniform(QueryKind::kAnswerIds, spec.closed_ids, domain, SubSeed(seed, 10),
                    &plan.closed);
      AppendUniform(QueryKind::kAnswerIds, spec.batched, domain, SubSeed(seed, 12),
                    &plan.batched);
      break;
    case Workload::kCloudTrajectorySharded:
      AppendWalkers(spec.closed_walk, domain, SubSeed(seed, 10), &plan.closed);
      AppendWalkers(spec.batched, domain, SubSeed(seed, 12), &plan.batched);
      break;
    case Workload::kLiveInsertMix:
      // The round queries are drawn per round; the batched phase runs on
      // the reopened file after the last round.
      AppendAlternating(spec.batched, domain, SubSeed(seed, 12), &plan.batched);
      break;
  }
  return plan;
}

constexpr size_t kBatchSize = 1000;
constexpr size_t kCacheCapacity = 1024;  // QueryCache leaves, per engine
constexpr int kQueriesPerRoundPerKind = 5;
constexpr size_t kOracleStride = 64;
constexpr size_t kTracedQueries = 30000;

// ---------------------------------------------------------------- tracing

/// Bench-side span sink. A span costs two clock reads and one append to a
/// preallocated vector, so the bookkeeping of nested spans barely shows in
/// the enclosing span; per-name totals and the Chrome trace (a private
/// obs::TraceRecorder, library tracing stays off) are derived afterwards.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) events_.reserve(1u << 20);
  }

  bool enabled() const { return enabled_; }

  void Add(const char* category, const char* name, SteadyClock::time_point start,
           SteadyClock::time_point end) {
    events_.push_back({category, name, start, end});
  }

  /// Wall seconds summed over every span called `name`.
  double Total(const char* name) const {
    double total = 0.0;
    for (const Event& e : events_) {
      if (std::strcmp(e.name, name) == 0) total += SecondsBetween(e.start, e.end);
    }
    return total;
  }

  size_t size() const { return events_.size(); }

  Status WriteChromeTrace(const std::string& path) const {
    obs::TraceRecorder recorder(std::max<size_t>(events_.size(), 1));
    const auto us = [](SteadyClock::time_point t) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch())
              .count());
    };
    for (const Event& e : events_) {
      recorder.Record(e.category, e.name, us(e.start), us(e.end) - us(e.start));
    }
    return recorder.WriteChromeTrace(path);
  }

 private:
  struct Event {
    const char* category;
    const char* name;
    SteadyClock::time_point start, end;
  };
  bool enabled_;
  std::vector<Event> events_;
};

/// RAII span from construction to destruction; `category` and `name` must
/// be string literals. Lap() splits it into consecutive layers: each lap
/// closes the layer that began at the previous boundary, so one clock read
/// serves both sides and the glue between two layers is billed to the later
/// one. Whatever runs after the last lap stays unattributed.
class Span {
 public:
  Span(Tracer* tracer, const char* category, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        category_(category),
        name_(name) {
    if (tracer_ != nullptr) start_ = last_ = SteadyClock::now();
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Add(category_, name_, start_, SteadyClock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Lap(const char* category, const char* name) {
    if (tracer_ == nullptr) return;
    const SteadyClock::time_point now = SteadyClock::now();
    tracer_->Add(category, name, last_, now);
    last_ = now;
  }

 private:
  Tracer* tracer_;
  const char* category_;
  const char* name_;
  SteadyClock::time_point start_, last_;
};

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : list_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    list_.push_back({name, value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics.list()) {
    out += first ? "" : ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

/// Nearest-rank percentile of `samples` (sorted in place).
double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(samples->size())));
  return (*samples)[std::min(samples->size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ----------------------------------------------------------------- oracle

/// Counts operations and failures, and checks every kOracleStride-th point
/// query against brute force over the population the query saw. Checking
/// happens in Verify(), outside the timed loops.
class Checker {
 public:
  void Attempt(uint64_t ops) { attempted_ += ops; }

  void Fail(const std::string& what) {
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
  }

  /// Whether Observe samples answers for the oracle (it always counts
  /// non-OK statuses).
  void SetSampling(bool on) { sampling_ = on; }

  /// Counts a non-OK status as failed and samples OK point answers.
  void Observe(const Query& q, const QueryResult& r, size_t population) {
    if (!r.status.ok()) {
      Fail("query status: " + r.status.ToString());
      return;
    }
    if (sampling_ && seen_++ % kOracleStride == 0) samples_.push_back({q, r, population});
  }

  /// Answer ids: every object with DistMin(q) <= min DistMax(q). PNN: the
  /// same id set, with probabilities within 1e-12 of the qualification
  /// integral over exactly those objects.
  void Verify(const std::vector<UncertainObject>& population,
              const uncertain::QualificationOptions& qualification) {
    for (const Sample& s : samples_) {
      const geom::Point& p = s.query.point;
      double d_minmax = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < s.population; ++i) {
        d_minmax = std::min(d_minmax, population[i].DistMax(p));
      }
      std::vector<const UncertainObject*> candidates;
      std::vector<int> ids;
      for (size_t i = 0; i < s.population; ++i) {
        if (population[i].DistMin(p) <= d_minmax) {
          candidates.push_back(&population[i]);
          ids.push_back(population[i].id());
        }
      }
      if (s.query.kind == QueryKind::kAnswerIds) {
        if (s.result.answer_ids != ids) Fail("answer ids differ from brute force");
        continue;
      }
      auto want = uncertain::ComputeQualificationProbabilities(candidates, p, qualification);
      auto got = s.result.pnn;
      const auto by_id = [](const uncertain::PnnAnswer& a, const uncertain::PnnAnswer& b) {
        return a.id < b.id;
      };
      std::sort(want.begin(), want.end(), by_id);
      std::sort(got.begin(), got.end(), by_id);
      bool same = want.size() == got.size();
      for (size_t i = 0; same && i < want.size(); ++i) {
        same = want[i].id == got[i].id &&
               std::abs(want[i].probability - got[i].probability) <= 1e-12;
      }
      if (!same) Fail("PNN answers differ from brute force");
    }
    checked_ += samples_.size();
    samples_.clear();
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t checked() const { return checked_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  struct Sample {
    Query query;
    QueryResult result;
    size_t population;
  };
  bool sampling_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t seen_ = 0;
  uint64_t checked_ = 0;
  std::vector<Sample> samples_;
  std::vector<std::string> messages_;
};

// ----------------------------------------------------------------- target

/// What a client talks to: one UVDiagram behind a QueryEngine, or a
/// ShardedUVDiagram behind a ShardRouter. Also exposes the per-part index,
/// store, pool and page counts the composed query path and the storage
/// metrics read.
class Target {
 public:
  Target(core::UVDiagram diagram, const query::QueryEngineOptions& options)
      : diagram_(std::make_unique<core::UVDiagram>(std::move(diagram))) {
    engine_ = std::make_unique<query::QueryEngine>(*diagram_, options);
  }
  Target(shard::ShardedUVDiagram diagram, const shard::ShardRouterOptions& options)
      : sharded_(std::make_unique<shard::ShardedUVDiagram>(std::move(diagram))) {
    router_ = std::make_unique<shard::ShardRouter>(*sharded_, options);
  }

  std::vector<QueryResult> Execute(const QueryBatch& batch) {
    return engine_ != nullptr ? engine_->ExecuteBatch(batch) : router_->ExecuteBatch(batch);
  }

  void InvalidateCaches() {
    if (engine_ != nullptr) {
      engine_->InvalidateCache();
    } else {
      router_->InvalidateCaches();
    }
  }

  /// Empties the buffer pools (cold serving state together with
  /// InvalidateCaches).
  void ClearPools() {
    for (size_t s = 0; s < parts(); ++s) {
      if (fpm(s)->pool() != nullptr) fpm(s)->pool()->Clear();
    }
  }

  size_t parts() const { return sharded_ != nullptr ? sharded_->num_shards() : 1; }
  size_t PartFor(const geom::Point& p) const {
    return sharded_ != nullptr ? static_cast<size_t>(sharded_->ShardIndexForPoint(p)) : 0;
  }
  const core::UVIndex& index(size_t s) const {
    return sharded_ != nullptr ? *sharded_->shard(s).index : diagram_->index();
  }
  const uncertain::ObjectStore& store(size_t s) const {
    return sharded_ != nullptr ? *sharded_->shard(s).store : diagram_->store();
  }
  storage::FilePageManager* fpm(size_t s) const {
    return sharded_ != nullptr ? sharded_->shard(s).fpm : diagram_->file_page_manager();
  }
  const uncertain::QualificationOptions& qualification() const {
    return sharded_ != nullptr ? sharded_->options().diagram.qualification
                               : diagram_->options().qualification;
  }

  Stats TotalStats() const {
    return sharded_ != nullptr ? sharded_->AggregateStats() : Stats(diagram_->stats());
  }

  uint64_t FilePages() const {
    uint64_t pages = 0;
    for (size_t s = 0; s < parts(); ++s) pages += fpm(s)->num_pages();
    return pages;
  }
  uint64_t DiskBytes() const {
    uint64_t bytes = 0;
    for (size_t s = 0; s < parts(); ++s) bytes += fpm(s)->bytes_on_disk();
    return bytes;
  }
  size_t Leaves() const {
    size_t leaves = 0;
    for (size_t s = 0; s < parts(); ++s) leaves += index(s).num_leaves();
    return leaves;
  }
  size_t PoolPages() const {
    size_t pages = 0;
    for (size_t s = 0; s < parts(); ++s) {
      if (fpm(s)->pool() != nullptr) pages += fpm(s)->pool()->capacity_pages();
    }
    return pages;
  }

  struct PoolCounts {
    uint64_t hits = 0, misses = 0, evictions = 0;
  };
  PoolCounts Pool() const {
    PoolCounts c;
    for (size_t s = 0; s < parts(); ++s) {
      const storage::BufferPool* pool = fpm(s)->pool();
      if (pool == nullptr) continue;
      c.hits += pool->hits();
      c.misses += pool->misses();
      c.evictions += pool->evictions();
    }
    return c;
  }

  /// Border registrations per object and max/mean objects per part
  /// (1 and 1 for an unsharded diagram).
  std::pair<double, double> ShardBalance() const {
    if (sharded_ == nullptr) return {1.0, 1.0};
    size_t total = 0, most = 0;
    for (const auto& b : sharded_->BalanceReport()) {
      total += b.objects;
      most = std::max(most, b.objects);
    }
    const double n = static_cast<double>(sharded_->objects().size());
    const double mean = static_cast<double>(total) / static_cast<double>(parts());
    return {static_cast<double>(total) / n, static_cast<double>(most) / mean};
  }

  core::UVDiagram* diagram() { return diagram_.get(); }

  Status CloseStorage() {
    engine_.reset();
    router_.reset();
    return diagram_ != nullptr ? diagram_->CloseStorage() : sharded_->CloseStorage();
  }

 private:
  std::unique_ptr<core::UVDiagram> diagram_;
  std::unique_ptr<query::QueryEngine> engine_;
  std::unique_ptr<shard::ShardedUVDiagram> sharded_;
  std::unique_ptr<shard::ShardRouter> router_;
};

// ------------------------------------------------------------------ setup

struct Env {
  Spec spec;
  int threads = 1;  // min(nproc, 4): build, engine and router workers
  std::string path;  // diagram file (prefix of the shard files when sharded)
  Tracer* tracer = nullptr;
};

core::UVDiagramOptions DiagramOptions(const Env& env) {
  core::UVDiagramOptions o;
  o.method = env.spec.method;
  o.build_threads = env.threads;
  o.storage_path = env.path;
  o.buffer_pool_pages = env.spec.pool_pages;
  return o;
}

shard::ShardedUVDiagramOptions ShardedOptions(const Env& env) {
  shard::ShardedUVDiagramOptions o;
  o.num_shards = env.spec.shards;
  o.partitioning = shard::ShardPartitioning::kMedian;
  o.diagram = DiagramOptions(env);
  return o;
}

std::unique_ptr<Target> OpenTarget(const Env& env) {
  if (env.spec.shards > 0) {
    auto opened = shard::ShardedUVDiagram::Open(env.path, ShardedOptions(env));
    UVD_CHECK_OK(opened.status());
    shard::ShardRouterOptions ro;
    ro.engine.threads = 1;
    ro.engine.cache.capacity = kCacheCapacity;
    ro.router_threads = env.threads;
    return std::make_unique<Target>(std::move(opened).value(), ro);
  }
  auto opened = core::UVDiagram::Open(env.path, DiagramOptions(env));
  UVD_CHECK_OK(opened.status());
  query::QueryEngineOptions eo;
  eo.threads = env.threads;
  eo.cache.capacity = kCacheCapacity;
  return std::make_unique<Target>(std::move(opened).value(), eo);
}

void RemoveFiles(const Env& env) {
  if (env.spec.shards > 0) {
    for (int s = 0; s < env.spec.shards; ++s) {
      std::remove(shard::ShardedUVDiagram::ShardFilePath(env.path, static_cast<size_t>(s)).c_str());
    }
  } else {
    std::remove(env.path.c_str());
  }
}

struct SetupResult {
  std::unique_ptr<Target> target;
  std::vector<UncertainObject> objects;
  geom::Box domain;
  double setup_s = 0, build_s = 0, build_cpu_s = 0, checkpoint_s = 0, open_s = 0;
  Stats build_stats;                 // tickers billed by the facade build
  std::vector<uint8_t> facade_index;  // SerializeStructure (trace runs only)
};

/// Data generation, Build, CloseStorage (checkpoint + close), Open and
/// engine/router construction — everything before the first query.
SetupResult Setup(const Env& env, uint64_t seed, bool serialize) {
  SetupResult r;
  const auto t0 = SteadyClock::now();
  {
    Span span(env.tracer, "datagen", "generate");
    r.objects = Generate(env.spec, seed, &r.domain);
  }
  double excluded = 0.0;  // trace-only serialization, not part of set-up
  RemoveFiles(env);
  const auto b0 = SteadyClock::now();
  const double c0 = ProcessCpuSeconds();
  if (env.spec.shards > 0) {
    std::unique_ptr<shard::ShardedUVDiagram> built;
    {
      Span span(env.tracer, "shard", "build");
      auto res = shard::ShardedUVDiagram::Build(r.objects, r.domain, ShardedOptions(env));
      UVD_CHECK_OK(res.status());
      built = std::make_unique<shard::ShardedUVDiagram>(std::move(res).value());
    }
    r.build_s = SecondsBetween(b0, SteadyClock::now());
    r.build_cpu_s = ProcessCpuSeconds() - c0;
    r.build_stats = built->AggregateStats();
    const auto k0 = SteadyClock::now();
    {
      Span span(env.tracer, "storage", "checkpoint");
      UVD_CHECK_OK(built->CloseStorage());
    }
    r.checkpoint_s = SecondsBetween(k0, SteadyClock::now());
  } else {
    auto res = core::UVDiagram::Build(r.objects, r.domain, DiagramOptions(env));
    UVD_CHECK_OK(res.status());
    core::UVDiagram built = std::move(res).value();
    r.build_s = SecondsBetween(b0, SteadyClock::now());
    r.build_cpu_s = ProcessCpuSeconds() - c0;
    r.build_stats = built.stats();
    if (serialize) {
      const auto s0 = SteadyClock::now();
      UVD_CHECK_OK(built.index().SerializeStructure(&r.facade_index));
      excluded += SecondsBetween(s0, SteadyClock::now());
    }
    const auto k0 = SteadyClock::now();
    {
      Span span(env.tracer, "storage", "checkpoint");
      UVD_CHECK_OK(built.CloseStorage());
    }
    r.checkpoint_s = SecondsBetween(k0, SteadyClock::now());
  }
  const auto o0 = SteadyClock::now();
  {
    Span span(env.tracer, "storage", "open");
    r.target = OpenTarget(env);
  }
  r.open_s = SecondsBetween(o0, SteadyClock::now());
  r.setup_s = SecondsBetween(t0, SteadyClock::now()) - excluded;
  return r;
}

// ---------------------------------------------------------- composed build

/// Per-layer build attribution (trace runs). Unsharded: the build is
/// recomposed from its public steps into a second file and must serialize
/// byte-identically to the facade build. Sharded: the global stage 1 is run
/// alone exactly as ShardedUVDiagram::Build runs it, and the shard builds
/// are the facade build's time minus that stage 1. Wall times are the
/// tracer's span totals; CPU times are taken here.
struct BuildLayers {
  double stage1_cpu_s = 0, stage2_cpu_s = 0;
  double avg_cr_objects = 0;
  Stats stats;
  std::vector<uint8_t> index_bytes;
};

BuildLayers ComposeBuild(const Env& env, const std::vector<UncertainObject>& objects,
                         const geom::Box& domain) {
  BuildLayers L;
  Tracer* tr = env.tracer;
  const std::string path = env.path + ".composed";
  std::remove(path.c_str());
  std::unique_ptr<storage::PageManager> pm;
  if (env.spec.shards > 0) {
    pm = std::make_unique<storage::PageManager>(storage::kDefaultPageSize, &L.stats);
  } else {
    storage::FilePageManagerOptions fo;
    fo.buffer_pool_pages = env.spec.pool_pages;
    auto created =
        storage::FilePageManager::Create(path, storage::kDefaultPageSize, fo, &L.stats);
    UVD_CHECK_OK(created.status());
    pm = std::move(created).value();
  }
  std::unique_ptr<core::UVIndex> index;
  {
    // Creating the file is not a build step, and at smoke sizes it would
    // be a visible share of the total; the total starts once it exists.
    Span total(tr, "build", "build_total");
    uncertain::ObjectStore store(pm.get());
    std::vector<uncertain::ObjectPtr> ptrs;
    {
      Span span(tr, "uncertain", "store_bulkload");
      UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    }
    std::unique_ptr<rtree::RTree> tree;
    {
      Span span(tr, "rtree", "bulkload");
      auto built = rtree::RTree::BulkLoad(objects, ptrs, pm.get(), {}, &L.stats);
      UVD_CHECK_OK(built.status());
      tree = std::make_unique<rtree::RTree>(std::move(built).value());
    }
    core::BuildPipelineOptions pipeline;
    pipeline.method = env.spec.method;
    pipeline.build_threads = env.threads;
    std::vector<std::vector<int>> index_ids;
    {
      core::BuildStats bs;
      const double c0 = ProcessCpuSeconds();
      Span span(tr, "core", "stage1");
      UVD_CHECK_OK(core::ComputeStage1Candidates(objects, *tree, domain, pipeline, &index_ids,
                                                 &bs, &L.stats));
      L.stage1_cpu_s = ProcessCpuSeconds() - c0;
      L.avg_cr_objects = bs.avg_cr_objects;
    }
    if (env.spec.shards == 0) {
      const double c0 = ProcessCpuSeconds();
      Span span(tr, "core", "stage2");
      index = std::make_unique<core::UVIndex>(domain, pm.get(), core::UVIndexOptions{},
                                              &L.stats);
      std::vector<core::UVIndex::BulkInsertItem> items(objects.size());
      for (size_t i = 0; i < objects.size(); ++i) {
        items[i].region = objects[i].region();
        items[i].id = objects[i].id();
        items[i].ptr = ptrs[i];
        for (int id : index_ids[i]) {
          items[i].cr_regions.push_back(objects[static_cast<size_t>(id)].region());
        }
      }
      index_ids.clear();
      ThreadPool pool(env.threads);
      core::UVIndex::PartitionedInsertOptions popts;
      popts.threads = env.threads;
      UVD_CHECK_OK(index->InsertObjectsPartitioned(std::move(items), &pool, popts));
      UVD_CHECK_OK(index->FinalizeWith(&pool, env.threads));
      L.stage2_cpu_s = ProcessCpuSeconds() - c0;
    }
  }
  if (index != nullptr) UVD_CHECK_OK(index->SerializeStructure(&L.index_bytes));
  index.reset();
  pm.reset();
  std::remove(path.c_str());
  return L;
}

// ------------------------------------------------------------------ serve

/// A closed-loop operation: a query, or on live_insert_mix an insert round's
/// write (InsertObject + InvalidateCache) or a checkpoint.
enum class Op : uint8_t { kPnn, kIds, kWrite };

/// One session's serving, operation by operation in issue order, so that
/// the identical sessions of a run can be merged per operation (MergeMin).
struct ServeSamples {
  std::vector<double> closed_s;  // each closed-loop operation
  std::vector<Op> closed_ops;
  std::vector<double> batch_s;  // each batch of the batched phase
  uint64_t batched_queries = 0;
  uint64_t digest = 0;  // every answer, in issue order
};

void FoldDigest(const std::vector<QueryResult>& results, ServeSamples* out) {
  out->digest = (out->digest * 0x100000001B3ull) ^ query::DigestPointAnswers(results);
}

/// Keeps in `best` each operation's fastest time over identical sessions:
/// outside load only ever adds time, so the fastest run of an operation is
/// the closest to its own cost. False if `s` did other work or answered
/// differently.
bool MergeMin(const ServeSamples& s, ServeSamples* best) {
  if (s.closed_ops != best->closed_ops || s.batch_s.size() != best->batch_s.size() ||
      s.batched_queries != best->batched_queries || s.digest != best->digest) {
    return false;
  }
  for (size_t i = 0; i < s.closed_s.size(); ++i) {
    best->closed_s[i] = std::min(best->closed_s[i], s.closed_s[i]);
  }
  for (size_t i = 0; i < s.batch_s.size(); ++i) {
    best->batch_s[i] = std::min(best->batch_s[i], s.batch_s[i]);
  }
  return true;
}

/// One closed-loop query: sent as a single-query batch after the previous
/// one returned.
void ClosedQuery(Target* t, const Query& q, size_t population, QueryBatch* one,
                 ServeSamples* out, Checker* checker) {
  (*one)[0] = q;
  const auto t0 = SteadyClock::now();
  std::vector<QueryResult> results = t->Execute(*one);
  out->closed_s.push_back(SecondsBetween(t0, SteadyClock::now()));
  out->closed_ops.push_back(q.kind == QueryKind::kPnn ? Op::kPnn : Op::kIds);
  FoldDigest(results, out);
  checker->Attempt(1);
  checker->Observe(q, results[0], population);
}

void ClosedLoop(Target* t, const QueryBatch& queries, size_t population, ServeSamples* out,
                Checker* checker) {
  QueryBatch one(1);
  for (const Query& q : queries) ClosedQuery(t, q, population, &one, out, checker);
}

void Batched(Target* t, const QueryBatch& queries, size_t population, ServeSamples* out,
             Checker* checker) {
  for (size_t begin = 0; begin < queries.size(); begin += kBatchSize) {
    const QueryBatch batch(queries.begin() + static_cast<std::ptrdiff_t>(begin),
                           queries.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(queries.size(), begin + kBatchSize)));
    const auto t0 = SteadyClock::now();
    const std::vector<QueryResult> results = t->Execute(batch);
    out->batch_s.push_back(SecondsBetween(t0, SteadyClock::now()));
    out->batched_queries += batch.size();
    FoldDigest(results, out);
    checker->Attempt(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) checker->Observe(batch[i], results[i], population);
  }
}

/// Insert-round accounting for live_insert_mix.
struct InsertLayers {
  std::vector<double> insert_ms;
  uint64_t inserts = 0, page_writes = 0, pages_allocated = 0, node_visits = 0;
  uint64_t checkpoints = 0, checkpoint_page_writes = 0;
  double invalidate_s = 0;
  uint64_t invalidations = 0;
};

/// live_insert_mix rounds: InsertObject, InvalidateCache, then 5 PNN and 5
/// answer-ids closed-loop queries on uniform points; Checkpoint every 50
/// inserts. `population` grows with every insert.
void InsertRounds(const Env& env, uint64_t seed, Target* t,
                  std::vector<UncertainObject>* population, const geom::Box& domain,
                  ServeSamples* out, InsertLayers* L, Checker* checker) {
  core::UVDiagram* d = t->diagram();
  const double radius = population->front().radius();
  const auto centers = datagen::UniformQueryPoints(env.spec.rounds, domain, SubSeed(seed, 20));
  QueryBatch one(1);
  Stats& stats = d->stats();
  // Every 50 inserts at full size; six checkpoints at any size.
  const int checkpoint_every = std::max(1, env.spec.rounds / 6);
  for (int r = 0; r < env.spec.rounds; ++r) {
    UncertainObject object = UncertainObject::WithGaussianPdf(
        static_cast<int>(population->size()),
        geom::Circle(centers[static_cast<size_t>(r)], radius));
    population->push_back(object);
    const uint64_t writes0 = stats.Get(Ticker::kPageWrites);
    const uint64_t visits0 = stats.Get(Ticker::kRtreeNodeVisits);
    const uint64_t pages0 = d->page_manager().num_pages();
    const auto t0 = SteadyClock::now();
    Status st;
    {
      Span span(env.tracer, "insert", "insert");
      st = d->InsertObject(std::move(object));
    }
    const double insert_s = SecondsBetween(t0, SteadyClock::now());
    checker->Attempt(1);
    if (!st.ok()) checker->Fail("insert status: " + st.ToString());
    L->insert_ms.push_back(insert_s * 1e3);
    ++L->inserts;
    L->page_writes += stats.Get(Ticker::kPageWrites) - writes0;
    L->node_visits += stats.Get(Ticker::kRtreeNodeVisits) - visits0;
    L->pages_allocated += d->page_manager().num_pages() - pages0;

    const auto i0 = SteadyClock::now();
    {
      Span span(env.tracer, "insert", "invalidate");
      t->InvalidateCaches();
    }
    const double invalidate_s = SecondsBetween(i0, SteadyClock::now());
    L->invalidate_s += invalidate_s;
    ++L->invalidations;
    out->closed_s.push_back(insert_s + invalidate_s);
    out->closed_ops.push_back(Op::kWrite);

    QueryBatch round;
    AppendUniform(QueryKind::kPnn, kQueriesPerRoundPerKind, domain,
                  SubSeed(seed, 1000 + 2 * static_cast<uint64_t>(r)), &round);
    AppendUniform(QueryKind::kAnswerIds, kQueriesPerRoundPerKind, domain,
                  SubSeed(seed, 1001 + 2 * static_cast<uint64_t>(r)), &round);
    for (const Query& q : round) {
      ClosedQuery(t, q, population->size(), &one, out, checker);
    }
    if ((r + 1) % checkpoint_every == 0) {
      const uint64_t w0 = stats.Get(Ticker::kPageWrites);
      const auto c0 = SteadyClock::now();
      {
        Span span(env.tracer, "insert", "checkpoint");
        st = d->Checkpoint();
      }
      out->closed_s.push_back(SecondsBetween(c0, SteadyClock::now()));
      out->closed_ops.push_back(Op::kWrite);
      checker->Attempt(1);
      if (!st.ok()) checker->Fail("checkpoint status: " + st.ToString());
      ++L->checkpoints;
      L->checkpoint_page_writes += stats.Get(Ticker::kPageWrites) - w0;
    }
  }
}

/// Final checkpoint of the live diagram, then a reopen whose answers must
/// digest-equal the live diagram's on the same probe batch.
std::unique_ptr<Target> CheckpointAndReopen(const Env& env, std::unique_ptr<Target> live,
                                            const QueryBatch& probe, Checker* checker) {
  const uint64_t want = query::DigestPointAnswers(live->Execute(probe));
  Status st = live->CloseStorage();
  checker->Attempt(1);
  if (!st.ok()) checker->Fail("final checkpoint status: " + st.ToString());
  live.reset();
  std::unique_ptr<Target> reopened = OpenTarget(env);
  const uint64_t got = query::DigestPointAnswers(reopened->Execute(probe));
  checker->Attempt(probe.size());
  if (got != want) checker->Fail("reopened answers differ from the live diagram");
  return reopened;
}

// ---------------------------------------------------------- composed query

struct QueryLayers {
  uint64_t queries = 0, pnn = 0, ids = 0, candidates = 0, answers = 0, pnn_answers = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  double tracing_overhead = 0, frontdoor_us = 0;
  Target::PoolCounts pool;
  uint64_t page_reads = 0;
  double invalidate_s = 0;
  uint64_t invalidations = 0;
};

using Caches = std::vector<std::unique_ptr<query::QueryCache>>;

/// The engine's query path recomposed from public steps: locate the leaf,
/// fetch its tuples through a QueryCache whose loader reads the leaf, then
/// verify (answer ids) or evaluate (PNN).
QueryResult ComposedQuery(const Target& t, Caches* caches, const Query& q, Stats* stats,
                          Tracer* tr, QueryLayers* L) {
  Span laps(tr, "query", "query_total");
  QueryResult r;
  const size_t part = t.PartFor(q.point);
  const core::UVIndex& index = t.index(part);
  const Result<uint32_t> leaf = index.LocateLeafChecked(q.point);
  laps.Lap("query", "locate");
  if (!leaf.ok()) {
    r.status = leaf.status();
    return r;
  }
  const uint32_t id = leaf.value();
  Result<std::vector<rtree::LeafEntry>> tuples = (*caches)[part]->GetOrLoad(
      id,
      [&] {
        Span read(tr, "query", "leaf_read");
        return index.ReadLeafEntries(id);
      },
      stats);
  laps.Lap("query", "cache");
  if (!tuples.ok()) {
    r.status = tuples.status();
    return r;
  }
  L->candidates += tuples.value().size();
  ++L->queries;
  if (q.kind == QueryKind::kAnswerIds) {
    r.answer_ids = core::AnswerIdsFromCandidates(std::move(tuples).value(), q.point);
    laps.Lap("query", "verify");
    L->answers += r.answer_ids.size();
    ++L->ids;
    return r;
  }
  auto answers = core::EvaluatePnnFromCandidates(std::move(tuples).value(), t.store(part),
                                                 q.point, t.qualification(), stats);
  laps.Lap("uncertain", "pnn_eval");
  if (!answers.ok()) {
    r.status = answers.status();
    return r;
  }
  r.pnn = std::move(answers).value();
  L->answers += r.pnn.size();
  L->pnn_answers += r.pnn.size();
  ++L->pnn;
  return r;
}

/// Engine passes over the same queries, each from a cold cache and pool,
/// in the order untraced, traced, traced, untraced (so drift cancels in the
/// tracing overhead); the traced passes wrap each query in one bench span.
/// The first pass supplies the storage counters and the reference answers.
/// Then the composed path runs once more from cold with per-layer spans;
/// its answers must digest-equal the engine's.
QueryLayers TraceServe(const Env& env, Target* t, const QueryBatch& queries,
                       size_t population, Checker* checker) {
  QueryLayers L;
  Tracer* tr = env.tracer;
  // Each pass starts cold; the drops also time InvalidateCache on a cache
  // the previous pass filled (insert.invalidate_us on every workload).
  const auto invalidate = [&] {
    const auto i0 = SteadyClock::now();
    t->InvalidateCaches();
    L.invalidate_s += SecondsBetween(i0, SteadyClock::now());
    ++L.invalidations;
    t->ClearPools();
  };
  // Every pass keeps its answers, so all four do the same work.
  const auto engine_pass = [&](bool traced, double* ids_s,
                               std::vector<QueryResult>* results) {
    invalidate();
    results->clear();
    results->reserve(queries.size());
    QueryBatch one(1);
    const auto t0 = SteadyClock::now();
    for (const Query& q : queries) {
      const auto q0 = SteadyClock::now();
      {
        Span span(traced ? tr : nullptr, "serve", "engine_query");
        one[0] = q;
        results->push_back(std::move(t->Execute(one)[0]));
      }
      if (ids_s != nullptr && q.kind == QueryKind::kAnswerIds) {
        *ids_s += SecondsBetween(q0, SteadyClock::now());
      }
    }
    return SecondsBetween(t0, SteadyClock::now());
  };

  double engine_ids_s = 0.0;
  std::vector<QueryResult> engine_results, scratch;
  const Target::PoolCounts pool0 = t->Pool();
  const uint64_t reads0 = t->TotalStats().Get(Ticker::kPageReads);
  const double plain1 = engine_pass(false, &engine_ids_s, &engine_results);
  const Target::PoolCounts pool1 = t->Pool();
  L.pool = {pool1.hits - pool0.hits, pool1.misses - pool0.misses,
            pool1.evictions - pool0.evictions};
  L.page_reads = t->TotalStats().Get(Ticker::kPageReads) - reads0;
  checker->Attempt(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    checker->Observe(queries[i], engine_results[i], population);
  }
  const double traced1 = engine_pass(true, nullptr, &scratch);
  const double traced2 = engine_pass(true, nullptr, &scratch);
  const double plain2 = engine_pass(false, &engine_ids_s, &scratch);
  L.tracing_overhead = (traced1 + traced2) / (plain1 + plain2) - 1.0;

  invalidate();
  Caches caches;
  query::QueryCacheOptions co;
  co.capacity = kCacheCapacity;
  for (size_t s = 0; s < t->parts(); ++s) {
    caches.push_back(std::make_unique<query::QueryCache>(co));
  }
  Stats stats;
  std::vector<QueryResult> composed;
  composed.reserve(queries.size());
  double composed_ids_s = 0.0;
  for (const Query& q : queries) {
    const auto q0 = SteadyClock::now();
    composed.push_back(ComposedQuery(*t, &caches, q, &stats, tr, &L));
    if (q.kind == QueryKind::kAnswerIds) composed_ids_s += SecondsBetween(q0, SteadyClock::now());
  }
  checker->Attempt(queries.size());
  if (query::DigestPointAnswers(composed) != query::DigestPointAnswers(engine_results)) {
    checker->Fail("composed query path disagrees with the engine");
  }
  // Front door: what the engine or router adds to the composed path, on
  // answer-ids queries (PNN integration noise would swamp it).
  L.frontdoor_us = (engine_ids_s / 2.0 - composed_ids_s) / static_cast<double>(L.ids) * 1e6;
  L.cache_hits = stats.Get(Ticker::kQueryCacheHits);
  L.cache_misses = stats.Get(Ticker::kQueryCacheMisses);
  return L;
}

// ------------------------------------------------------------------- runs

struct RunReport {
  Metrics metrics;  // the result line's metrics: end-to-end or per-layer
  Metrics detail;   // extra fields for the run JSON only
  Metrics sizes;    // objects, file pages, pool pages, leaves, cache capacity
};

void RecordSizes(const Target& t, size_t objects, RunReport* report) {
  report->sizes.Set("objects", static_cast<double>(objects), "count");
  report->sizes.Set("file_pages", static_cast<double>(t.FilePages()), "pages");
  report->sizes.Set("pool_pages", static_cast<double>(t.PoolPages()), "pages");
  report->sizes.Set("leaves", static_cast<double>(t.Leaves()), "count");
  report->sizes.Set("cache_capacity", static_cast<double>(kCacheCapacity * t.parts()),
                    "leaves");
}

/// One session's set-up values and serving.
struct SessionResult {
  double setup_s = 0, build_s = 0, disk_bytes_per_object = 0;
  ServeSamples serve;
};

/// One set-up followed by serving from the cold-opened file: `passes`
/// identical passes of the closed loop and the batched phase, merged by
/// MergeMin, or on live_insert_mix the insert rounds, final checkpoint,
/// reopen and batched phase.
SessionResult RunSession(const Env& env, uint64_t seed, Checker* checker, RunReport* report,
                         InsertLayers* inserts) {
  SetupResult s = Setup(env, seed, /*serialize=*/false);
  checker->Attempt(1);
  std::vector<UncertainObject> population = s.objects;
  const QueryPlan plan = PlanQueries(env.spec, s.domain, seed);
  SessionResult out;
  if (env.spec.kind == Workload::kLiveInsertMix) {
    InsertRounds(env, seed, s.target.get(), &population, s.domain, &out.serve, inserts,
                 checker);
    const QueryBatch probe(plan.batched.begin(),
                           plan.batched.begin() + static_cast<std::ptrdiff_t>(
                                                      std::min<size_t>(500, plan.batched.size())));
    s.target = CheckpointAndReopen(env, std::move(s.target), probe, checker);
    Batched(s.target.get(), plan.batched, population.size(), &out.serve, checker);
  } else {
    // Every pass starts from an empty cache, as the first one after Open
    // does. A pool smaller than the file is emptied too, so the passes do
    // identical work; one that holds the whole file stays warm after the
    // first pass, as it would in a server's steady state, and MergeMin
    // keeps its warm reads.
    for (int p = 0; p < env.spec.passes; ++p) {
      ServeSamples pass;
      if (p > 0) {
        s.target->InvalidateCaches();
        if (s.target->PoolPages() < s.target->FilePages()) s.target->ClearPools();
        checker->SetSampling(false);
      }
      ClosedLoop(s.target.get(), plan.closed, population.size(), &pass, checker);
      Batched(s.target.get(), plan.batched, population.size(), &pass, checker);
      if (p == 0) {
        out.serve = std::move(pass);
      } else if (!MergeMin(pass, &out.serve)) {
        checker->Fail("a repeated pass did different work or answered differently");
      }
    }
  }
  // The files are as the last checkpoint left them: serving never writes.
  out.disk_bytes_per_object =
      static_cast<double>(s.target->DiskBytes()) / static_cast<double>(population.size());
  RecordSizes(*s.target, population.size(), report);
  checker->Verify(population, s.target->qualification());
  s.target.reset();
  RemoveFiles(env);
  out.setup_s = s.setup_s;
  out.build_s = s.build_s;
  return out;
}

/// --trace=0: `repeats` identical sessions (same data, same queries),
/// merged per operation by MergeMin. Latency percentiles are taken over
/// every distinct closed-loop query of the merged session; build_s is the
/// fastest build and setup_s the median set-up.
RunReport MeasureEndToEnd(const Env& env, uint64_t seed, Checker* checker) {
  RunReport report;
  InsertLayers inserts;
  ServeSamples best;
  std::vector<double> setup_s, build_s, disk;
  for (int r = 0; r < env.spec.repeats; ++r) {
    // The oracle samples the first session; the others must answer the
    // same, digest for digest.
    checker->SetSampling(r == 0);
    SessionResult s = RunSession(env, seed, checker, &report, &inserts);
    if (r == 0) {
      best = std::move(s.serve);
    } else if (!MergeMin(s.serve, &best)) {
      checker->Fail("a repeated session did different work or answered differently");
    }
    setup_s.push_back(s.setup_s);
    build_s.push_back(s.build_s);
    disk.push_back(s.disk_bytes_per_object);
    report.detail.Set("setup_s.repeat" + std::to_string(r), s.setup_s, "s");
    report.detail.Set("build_s.repeat" + std::to_string(r), s.build_s, "s");
  }
  checker->SetSampling(true);

  std::vector<double> pnn_us, ids_us;
  double closed_s = 0, pnn_s = 0, ids_s = 0, batched_s = 0;
  for (size_t i = 0; i < best.closed_s.size(); ++i) {
    const double t = best.closed_s[i];
    closed_s += t;
    if (best.closed_ops[i] == Op::kPnn) {
      pnn_us.push_back(t * 1e6);
      pnn_s += t;
    } else if (best.closed_ops[i] == Op::kIds) {
      ids_us.push_back(t * 1e6);
      ids_s += t;
    }
  }
  for (double t : best.batch_s) batched_s += t;
  Metrics& m = report.metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("build_s", *std::min_element(build_s.begin(), build_s.end()), "s");
  m.Set("pnn_p50_us", Percentile(&pnn_us, 0.50), "us");
  m.Set("pnn_p99_us", Percentile(&pnn_us, 0.99), "us");
  m.Set("ids_p50_us", Percentile(&ids_us, 0.50), "us");
  m.Set("ids_p99_us", Percentile(&ids_us, 0.99), "us");
  m.Set("batch_qps", static_cast<double>(best.batched_queries) / batched_s, "1/s");
  m.Set("closed_ops_per_s", static_cast<double>(best.closed_s.size()) / closed_s, "1/s");
  m.Set("disk_bytes_per_object", Median(disk), "B");
  m.Set("peak_rss_mb", PeakRssMiB(), "MiB");
  report.detail.Set("pnn_samples", static_cast<double>(pnn_us.size()), "count");
  report.detail.Set("ids_samples", static_cast<double>(ids_us.size()), "count");
  // Shares of the closed-loop client's time; on live_insert_mix the rest
  // is inserts, invalidations and checkpoints.
  report.detail.Set("closed_pnn_share", pnn_s / closed_s, "ratio");
  report.detail.Set("closed_ids_share", ids_s / closed_s, "ratio");
  report.detail.Set("repeats", env.spec.repeats, "count");
  report.detail.Set("oracle_checked", static_cast<double>(checker->checked()), "count");
  if (!inserts.insert_ms.empty()) {
    const double n = static_cast<double>(inserts.inserts);
    report.detail.Set("insert_samples", n, "count");
    report.detail.Set("insert_p50_ms", Percentile(&inserts.insert_ms, 0.50), "ms");
    report.detail.Set("insert_p95_ms", Percentile(&inserts.insert_ms, 0.95), "ms");
    report.detail.Set("insert_pages_per_op", static_cast<double>(inserts.page_writes) / n,
                      "pages");
  }
  return report;
}

/// --trace=1: one set-up, the composed build, the insert rounds where the
/// workload has them, and the serve passes of TraceServe.
RunReport MeasureLayers(const Env& env, uint64_t seed, Checker* checker) {
  RunReport report;
  Tracer* tr = env.tracer;
  const bool sharded = env.spec.shards > 0;
  SetupResult s = Setup(env, seed, /*serialize=*/!sharded);
  checker->Attempt(1);
  const BuildLayers b = ComposeBuild(env, s.objects, s.domain);
  checker->Attempt(1);
  if (!sharded && b.index_bytes != s.facade_index) {
    checker->Fail("composed build does not serialize like UVDiagram::Build");
  }
  Stats build_stats = b.stats;
  const double store_s = tr->Total("store_bulkload");
  const double rtree_s = tr->Total("bulkload");
  const double stage1_s = tr->Total("stage1");
  const double total = tr->Total("build_total");
  double stage2_wall = tr->Total("stage2"), stage2_cpu = b.stage2_cpu_s;
  if (sharded) {
    // Shard builds = the facade build minus the global stage 1 it contains.
    build_stats.MergeFrom(s.build_stats);
    stage2_wall = s.build_s - stage1_s;
    stage2_cpu = s.build_cpu_s - b.stage1_cpu_s;
  }
  // Sharded: the composed part is the standalone global stage 1, so its
  // glue is what stays unattributed; the facade build is split by the
  // definition of stage 2 above.
  const double attributed = store_s + rtree_s + stage1_s + (sharded ? 0.0 : stage2_wall);

  std::vector<UncertainObject> population = s.objects;
  const QueryPlan plan = PlanQueries(env.spec, s.domain, seed);
  ServeSamples serve;
  InsertLayers ins;
  const QueryBatch* serve_queries = &plan.closed;
  if (env.spec.kind == Workload::kLiveInsertMix) {
    InsertRounds(env, seed, s.target.get(), &population, s.domain, &serve, &ins, checker);
    const QueryBatch probe(plan.batched.begin(),
                           plan.batched.begin() +
                               static_cast<std::ptrdiff_t>(std::min<size_t>(500, plan.batched.size())));
    s.target = CheckpointAndReopen(env, std::move(s.target), probe, checker);
    serve_queries = &plan.batched;
  }
  RecordSizes(*s.target, population.size(), &report);
  // A prefix keeps the serve passes and the trace file bounded; every plan
  // has both query kinds inside it.
  const QueryBatch traced(serve_queries->begin(),
                          serve_queries->begin() + static_cast<std::ptrdiff_t>(std::min(
                                                       serve_queries->size(), kTracedQueries)));
  const QueryLayers q = TraceServe(env, s.target.get(), traced, population.size(), checker);
  checker->Verify(population, s.target->qualification());

  Metrics& m = report.metrics;
  m.Set("datagen.generate_s", tr->Total("generate"), "s");
  m.Set("uncertain.store_bulkload_s", store_s, "s");
  m.Set("rtree.bulkload_s", rtree_s, "s");
  m.Set("core.stage1_wall_s", stage1_s, "s");
  m.Set("core.stage1_cpu_s", b.stage1_cpu_s, "s");
  m.Set("core.stage1_par_eff", b.stage1_cpu_s / stage1_s / env.threads, "ratio");
  m.Set("core.stage2_wall_s", stage2_wall, "s");
  m.Set("core.stage2_cpu_s", stage2_cpu, "s");
  m.Set("build.unattributed_frac", (total - attributed) / total, "ratio");
  m.Set("rtree.node_visits", static_cast<double>(build_stats.Get(Ticker::kRtreeNodeVisits)),
        "count");
  m.Set("rtree.leaf_reads", static_cast<double>(build_stats.Get(Ticker::kRtreeLeafReads)),
        "count");
  m.Set("build.page_reads", static_cast<double>(build_stats.Get(Ticker::kPageReads)), "pages");
  m.Set("build.page_writes", static_cast<double>(build_stats.Get(Ticker::kPageWrites)),
        "pages");
  m.Set("core.avg_cr_objects", b.avg_cr_objects, "count");
  m.Set("core.overlap_checks", static_cast<double>(build_stats.Get(Ticker::kOverlapChecks)),
        "count");
  m.Set("geom.envelope_insertions",
        static_cast<double>(build_stats.Get(Ticker::kEnvelopeInsertions)), "count");

  const double nq = static_cast<double>(q.queries);
  const double lookups = static_cast<double>(q.pool.hits + q.pool.misses);
  m.Set("storage.checkpoint_s", s.checkpoint_s, "s");
  m.Set("storage.open_s", s.open_s, "s");
  m.Set("storage.pool_hit_ratio", lookups > 0 ? static_cast<double>(q.pool.hits) / lookups : 0.0,
        "ratio");
  m.Set("storage.pool_misses_per_query", static_cast<double>(q.pool.misses) / nq, "pages");
  m.Set("storage.pool_evictions", static_cast<double>(q.pool.evictions), "count");
  m.Set("storage.page_reads_per_query", static_cast<double>(q.page_reads) / nq, "pages");
  m.Set("storage.file_pages", static_cast<double>(s.target->FilePages()), "pages");

  const double span_total = tr->Total("query_total");
  const double cache_lookups = static_cast<double>(q.cache_hits + q.cache_misses);
  m.Set("query.locate_us", tr->Total("locate") / nq * 1e6, "us");
  m.Set("query.cache_hit_ratio", static_cast<double>(q.cache_hits) / cache_lookups, "ratio");
  m.Set("query.leaf_read_us", tr->Total("leaf_read") / nq * 1e6, "us");
  m.Set("query.candidates_per_query", static_cast<double>(q.candidates) / nq, "count");
  m.Set("query.verify_us", tr->Total("verify") / static_cast<double>(q.ids) * 1e6, "us");
  m.Set("query.answer_yield", static_cast<double>(q.answers) / static_cast<double>(q.candidates),
        "ratio");
  m.Set("uncertain.pnn_eval_us", tr->Total("pnn_eval") / static_cast<double>(q.pnn) * 1e6,
        "us");
  // The integration runs once per PNN query over the objects that can be
  // nearest; its cost grows with the square of their number.
  m.Set("uncertain.pnn_answers_per_query",
        static_cast<double>(q.pnn_answers) / static_cast<double>(q.pnn), "count");
  m.Set("serve.unattributed_frac",
        (span_total - tr->Total("locate") - tr->Total("cache") - tr->Total("verify") -
         tr->Total("pnn_eval")) /
            span_total,
        "ratio");
  m.Set("serve.frontdoor_overhead_us", q.frontdoor_us, "us");

  const auto balance = s.target->ShardBalance();
  m.Set("shard.replicas_per_object", balance.first, "ratio");
  m.Set("shard.imbalance", balance.second, "ratio");

  const double inserts = static_cast<double>(std::max<uint64_t>(ins.inserts, 1));
  m.Set("insert.page_writes_per_op", static_cast<double>(ins.page_writes) / inserts, "pages");
  m.Set("insert.pages_allocated_per_op", static_cast<double>(ins.pages_allocated) / inserts,
        "pages");
  m.Set("insert.rtree_node_visits_per_op", static_cast<double>(ins.node_visits) / inserts,
        "count");
  m.Set("insert.invalidate_us",
        (ins.invalidate_s + q.invalidate_s) /
            static_cast<double>(ins.invalidations + q.invalidations) * 1e6,
        "us");
  m.Set("insert.checkpoint_pages_written",
        static_cast<double>(ins.checkpoint_page_writes) /
            static_cast<double>(std::max<uint64_t>(ins.checkpoints, 1)),
        "pages");
  m.Set("trace.overhead_frac", q.tracing_overhead, "ratio");

  // Shares of the build (the facade build when sharded) and of the composed
  // query path, so a workload's description can be checked against them.
  const double build_wall = sharded ? s.build_s : total;
  report.detail.Set("build.stage1_share", stage1_s / build_wall, "ratio");
  report.detail.Set("build.stage2_share", stage2_wall / build_wall, "ratio");
  for (const char* layer : {"locate", "cache", "leaf_read", "verify", "pnn_eval"}) {
    report.detail.Set(std::string("serve.") + layer + "_share", tr->Total(layer) / span_total,
                      "ratio");
  }
  report.detail.Set("serve_queries", nq, "count");
  report.detail.Set("serve_pnn_queries", static_cast<double>(q.pnn), "count");
  report.detail.Set("trace_events", static_cast<double>(tr->size()), "count");
  s.target.reset();
  RemoveFiles(env);
  return report;
}

// ----------------------------------------------------------------- output

std::string StampJson(const Flags& f, const Env& env) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"threads\": " << env.threads
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"build_type\": " << JsonString(UVD_E2E_BUILD_TYPE)
      << ", \"simd_isa\": " << JsonString(geom::batch::SimdIsa())
      << ", \"rev\": " << JsonString(f.rev) << ", \"seed\": " << f.seed
      << ", \"seconds\": " << JsonNumber(f.seconds) << ", \"scale\": " << JsonNumber(f.scale)
      << "}";
  return out.str();
}

std::string SizesJson(const Metrics& sizes) {
  std::string out = "{";
  for (const Metric& m : sizes.list()) {
    out += (out.size() > 1 ? ", " : "") + JsonString(m.name) + ": " + JsonNumber(m.value);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Flags f;
  Spec spec;
  if (!ParseFlags(argc, argv, &f) || !SpecFor(f.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=uniform_pnn|uniform_ids_cold|"
                 "cloud_trajectory_sharded|live_insert_mix --seed=N [--seconds=T] "
                 "[--trace=0|1] [--rev=SHA] [--json=PATH] [--out-dir=DIR] [--scale=F]\n");
    return 2;
  }
  Env env;
  env.threads = static_cast<int>(std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));
  env.path = f.out_dir + "/e2e_" + spec.name + ".uvpf";
  Checker checker;
  {
    // Untimed 1/10-size copy of the workload, one session of one pass:
    // page cache, allocator and CPU frequency settle before anything is
    // measured.
    Env warm = env;
    warm.spec = Scaled(spec, 0.1 * f.scale, 1.0);
    warm.spec.repeats = 1;
    warm.spec.passes = 1;
    MeasureEndToEnd(warm, f.seed, &checker);
  }
  env.spec = Scaled(spec, f.scale, f.seconds / kReferenceSeconds);
  Tracer tracer(f.trace);
  env.tracer = &tracer;
  const RunReport report =
      f.trace ? MeasureLayers(env, f.seed, &checker) : MeasureEndToEnd(env, f.seed, &checker);

  if (f.trace) {
    const std::string trace_path =
        f.out_dir + "/trace_" + spec.name + "_" + std::to_string(f.seed) + ".json";
    const Status st = tracer.WriteChromeTrace(trace_path);
    if (!st.ok()) checker.Fail("trace export: " + st.ToString());
    std::printf("trace: %s\n", trace_path.c_str());
  }
  for (const std::string& msg : checker.messages()) std::fprintf(stderr, "FAILED: %s\n", msg.c_str());

  const bool correct = checker.failed() == 0;
  std::printf("workload %s seed %llu: %s\n", spec.name,
              static_cast<unsigned long long>(f.seed), StampJson(f, env).c_str());
  std::printf("sizes: %s\n", SizesJson(report.sizes).c_str());
  for (const Metric& m : report.detail.list()) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.metrics.list()) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string counts = "\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(checker.attempted()) +
                             ", \"failed\": " + std::to_string(checker.failed());
  if (!f.json.empty()) {
    const std::string doc = "{\"bench\": \"bench_e2e\", \"workload\": " + JsonString(spec.name) +
                            ", \"trace\": " + (f.trace ? "1" : "0") +
                            ", \"stamp\": " + StampJson(f, env) +
                            ", \"sizes\": " + SizesJson(report.sizes) + ", " + counts +
                            ", \"metrics\": " + MetricsJson(report.metrics) +
                            ", \"detail\": " + MetricsJson(report.detail) + "}\n";
    std::FILE* out = std::fopen(f.json.c_str(), "w");
    const bool written =
        out != nullptr && std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
    if (out != nullptr && std::fclose(out) != 0) return 1;
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", f.json.c_str());
      return 1;
    }
  }
  std::printf("{%s, \"metrics\": %s}\n", counts.c_str(), MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace uvd

int main(int argc, char** argv) { return uvd::e2e::Main(argc, argv); }
