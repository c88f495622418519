// Concurrent batched query execution over a built UVDiagram.
//
// A QueryEngine executes batches of heterogeneous queries — PNN,
// answer-ids-only, UV-partition range and cell-summary — against an
// immutable diagram, fanned out with RunWorkers (common/thread_pool.h) on
// a pool it owns or, behind a ShardRouter, on the router's pool:
//
//   * Fan-out: workers claim batch slots through an atomic cursor; every
//     query path is const over the diagram (leaf pages and object records
//     are only read, and PageManager reads are safe for concurrent
//     callers), so any number of workers may serve one batch.
//   * Per-worker stats: each worker bills the hot computation tickers
//     (integrations, hyperbola tests, cache hits/misses) to a private
//     Stats shard, merged into the diagram's Stats via Stats::MergeFrom
//     after the batch — mirroring the build pipeline's story. Index/page
//     tickers billed through the index's own Stats pointer are relaxed
//     atomics and stay exact under sharing.
//   * In-order results: results[i] answers batch[i] for every worker
//     count; per-query errors land in results[i].status.
//   * Cell cache: a bounded sharded LRU (query_cache.h) memoizes the
//     point-location + page-list phase per UV-index leaf, so co-located
//     probes (moving-NN trajectories) skip redundant leaf I/O.
//
// Determinism guarantee: for a fixed diagram, the results of ExecuteBatch
// are bitwise-identical across thread counts and cache settings — the
// cache stores the exact ReadLeafEntries output and the per-query
// computation never depends on scheduling.
//
// Concurrency: ExecuteBatch is safe to call from several threads on one
// engine (per-shard front-ends funneling to the same index); each call
// uses private Stats shards, and publication of the observability snapshot
// (worker_stats()) is mutex-guarded. The engine must not run concurrently
// with diagram mutation (UVDiagram::InsertObject); after an insert, call
// InvalidateCache() before the next batch.
//
// In a sharded deployment (src/shard/) one engine serves each shard's
// DiagramView behind the ShardRouter, borrowing the router's pool.
// docs/ARCHITECTURE.md has the subsystem map, the batch data flow through
// the sharded path, and the determinism guarantees table; docs/TUNING.md
// covers the knobs (threads, cache sizing) with measured trade-offs.
#ifndef UVD_QUERY_QUERY_ENGINE_H_
#define UVD_QUERY_QUERY_ENGINE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/uv_diagram.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "query/query_batch.h"
#include "query/query_cache.h"

namespace uvd {
namespace query {

/// Engine configuration.
struct QueryEngineOptions {
  /// Worker count, the caller included. <= 0: hardware concurrency; 1:
  /// serial execution on the calling thread. Results never depend on it.
  int threads = 0;
  /// Cell-level result caching of the leaf page-list phase. Answers are
  /// bitwise-identical with the cache on or off; disable to measure raw
  /// I/O or when leaves are mutated between batches.
  bool enable_cache = true;
  QueryCacheOptions cache;
};

/// The slice of a diagram the engine actually queries. UVDiagram is one
/// source of such a view; a shard of a ShardedUVDiagram (its own UVIndex +
/// ObjectStore over a sub-domain, src/shard/) is another. All pointers must
/// outlive the engine; `stats` (optional) receives the merged per-worker
/// shards after each batch.
struct DiagramView {
  const core::UVIndex* index = nullptr;
  const uncertain::ObjectStore* store = nullptr;
  uncertain::QualificationOptions qualification;
  Stats* stats = nullptr;
};

/// \brief Executes query batches against a built UVDiagram (or any
/// DiagramView, e.g. one shard of a sharded deployment).
class QueryEngine {
 public:
  explicit QueryEngine(const core::UVDiagram& diagram,
                       const QueryEngineOptions& options = {});
  /// A given `pool` is borrowed and must outlive the engine; otherwise the
  /// engine owns one of threads - 1 workers (the caller is the last).
  explicit QueryEngine(const DiagramView& view, const QueryEngineOptions& options = {},
                       ThreadPool* pool = nullptr);

  /// Answers every query in the batch; results[i] corresponds to batch[i].
  /// Per-query failures (e.g. a point outside the domain) are reported in
  /// results[i].status without failing the rest of the batch. Worker
  /// shards are merged into the view's Stats before returning. Safe for
  /// concurrent callers: each call owns its shards (no cross-call state).
  std::vector<QueryResult> ExecuteBatch(const QueryBatch& batch);

  /// Per-worker Stats shards from the most recent ExecuteBatch (already
  /// merged into the view's Stats; kept for observability — e.g. cache
  /// hit rates or integration counts per worker). Returns a snapshot by
  /// value: with concurrent ExecuteBatch callers the member is updated
  /// under a mutex, so a reference would race with the next publication.
  std::vector<Stats> worker_stats() const;

  /// Drops every cached leaf; required after UVDiagram::InsertObject.
  void InvalidateCache();

  /// Per-query-kind latency distribution in microseconds, accumulated
  /// across every ExecuteBatch on this engine. A fanned-out batch records
  /// into call-local per-worker shards merged (exact MergeFrom) after it,
  /// the same story as the Stats shards; an inline batch records here
  /// directly. Empty while obs::MetricsEnabled() is
  /// off. Purely observational — answers are identical either way.
  const obs::LatencyHistogram& kind_latency(QueryKind kind) const {
    return kind_latency_[static_cast<size_t>(kind)];
  }

  /// Zeroes the per-kind latency histograms (e.g. between bench phases).
  void ResetMetrics();

  /// Registers this engine's observables on `registry` under `prefix`:
  /// "<prefix>.query.<kind>.latency.us" histograms, cache occupancy
  /// gauges ("<prefix>.cache.size" / ".cache.protected_size"), an owned
  /// pool's queue depth ("<prefix>.pool.queue_depth") and — when the view
  /// carries a Stats — every ticker as "<prefix>.<ticker>". The engine
  /// must outlive the registry's last snapshot.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

  /// Null when the cache is disabled.
  QueryCache* cache() { return cache_.get(); }

  int num_threads() const { return threads_; }
  const QueryEngineOptions& options() const { return options_; }
  const DiagramView& view() const { return view_; }

 private:
  QueryResult ExecuteOne(const Query& q, Stats* shard) const;

  /// The cacheable index phase: point location + leaf page list.
  Result<std::vector<rtree::LeafEntry>> CandidatesFor(const geom::Point& p,
                                                      Stats* shard) const;

  DiagramView view_;
  QueryEngineOptions options_;
  int threads_;
  std::unique_ptr<QueryCache> cache_;    // null if disabled
  std::unique_ptr<ThreadPool> owned_pool_;  // null if borrowed or threads_ == 1
  ThreadPool* pool_;                        // the fan-out's pool; null if none
  mutable Mutex stats_mu_;
  // Last batch's shards (observability snapshot, republished per batch).
  std::vector<Stats> worker_stats_ UVD_GUARDED_BY(stats_mu_);
  // Cumulative per-kind query latency (us); merged from call-local worker
  // shards after each batch, so concurrent callers never contend on it
  // mid-batch.
  std::array<obs::LatencyHistogram, kNumQueryKinds> kind_latency_;
};

}  // namespace query
}  // namespace uvd

#endif  // UVD_QUERY_QUERY_ENGINE_H_
