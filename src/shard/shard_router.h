// Border-correct query routing over a ShardedUVDiagram: one QueryEngine
// per shard, one front door.
//
//              QueryBatch (heterogeneous, submission-ordered)
//                               |
//                          ShardRouter
//           .-------------------+-------------------.
//           | point: owning     | range: every      | id: every shard
//           | shard only        | intersecting      | the object is
//           | (half-open cut-   | shard             | registered with
//           |  line ownership)  |                   |
//           v                   v                   v
//       QueryEngine[s0]    QueryEngine[s1]  ...  QueryEngine[sK-1]
//           |                   |                   |
//           '---- results reassembled positionally; multi-shard ---'
//                 answers merged in ascending shard order
//
// Routing and merge rules per query kind:
//   * kPnn / kAnswerIds — routed to the single shard owning the point
//     (ShardedUVDiagram::ShardIndexForPoint; cut-line points go to the
//     upper/right shard, domain-max-edge points clamp to the edge shard).
//     Border replication guarantees the owning shard alone answers
//     bitwise-identically to an unsharded diagram, so no cross-shard merge
//     is needed — the border handling lives in construction, not here.
//   * kUvPartitions — fanned to every shard whose box intersects the
//     range; per-shard partition lists are concatenated in ascending shard
//     order. Partitions report each shard's own leaf geometry: the union
//     covers range-within-domain exactly once (shards tile the domain and
//     leaves tile each shard), but leaf boundaries naturally differ from a
//     single index's, so this kind is deterministic per deployment rather
//     than bitwise-equal across deployments.
//   * kCellSummary — fanned to every shard the object is registered with;
//     found summaries merge (areas and leaf counts add — shard leaves are
//     disjoint — extents union). All-shards-NotFound merges to NotFound.
//
// Threads: the router owns one pool of router_threads x engine.threads - 1
// workers (the caller is the last) and lends it to every engine, whose
// batch fan-outs nest inside the router's shard fan-out.
//
// Stats: each shard's engine bills that shard's Stats
// (ShardedUVDiagram::ViewOfShard) with per-worker shards merged via
// Stats::MergeFrom, extending the per-worker story to per-index-shard.
// ExecuteBatch is safe for concurrent callers (engines are; router state
// is call-local), and results are bitwise-identical across router/engine
// thread counts and cache settings.
#ifndef UVD_SHARD_SHARD_ROUTER_H_
#define UVD_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "query/query_batch.h"
#include "query/query_engine.h"
#include "shard/sharded_uv_diagram.h"

namespace uvd {
namespace shard {

struct ShardRouterOptions {
  /// Per-shard engine configuration. Default: 1 worker per shard — batch
  /// parallelism comes from fanning across shards (router_threads); raise
  /// `engine.threads` to also parallelize within hot shards.
  query::QueryEngineOptions engine{/*threads=*/1, /*enable_cache=*/true, /*cache=*/{}};
  /// Concurrent per-shard sub-batch execution. <= 0: one slot per shard
  /// (not capped at hardware concurrency — disk-bound shards block rather
  /// than compute, so full fan-out is what hides the I/O latency);
  /// 1: serial shard loop on the calling thread.
  int router_threads = 0;
};

/// \brief Routes query batches to per-shard engines and merges answers.
class ShardRouter {
 public:
  explicit ShardRouter(const ShardedUVDiagram& diagram,
                       const ShardRouterOptions& options = {});

  /// Answers every query in the batch; results[i] corresponds to batch[i]
  /// for every shard count and thread configuration. Per-query errors land
  /// in results[i].status without failing the batch.
  std::vector<query::QueryResult> ExecuteBatch(const query::QueryBatch& batch);

  /// The per-shard engine (e.g. to inspect worker_stats() or the cache).
  query::QueryEngine* engine(size_t s) { return engines_[s].get(); }

  /// Drops every shard engine's leaf cache.
  void InvalidateCaches();

  size_t num_shards() const { return engines_.size(); }
  const ShardRouterOptions& options() const { return options_; }

  /// Router-side latency of the queries routed to shard `s`, in
  /// microseconds: one sample per routed query, the wall time of the
  /// sub-batch it rode in (queueing behind the router pool included — the
  /// number a front-end actually waits on, as opposed to the engine's own
  /// per-query kind_latency()). Its count equals routed_queries(s). Empty
  /// while obs::MetricsEnabled() is off.
  const obs::LatencyHistogram& shard_latency(size_t s) const {
    return shard_obs_[s]->routed_latency_us;
  }

  /// Queries routed to shard `s` so far (multi-shard kinds count once per
  /// target shard).
  uint64_t routed_queries(size_t s) const {
    return shard_obs_[s]->routed_queries.load(std::memory_order_relaxed);
  }

  /// Exact cross-shard merge of every engine's per-kind latency histogram
  /// — the deployment-wide per-query distribution for `kind` (MergeFrom is
  /// exact, so this equals one histogram fed every shard's stream).
  obs::LatencyHistogram MergedKindLatency(query::QueryKind kind) const;

  /// Zeroes the router's histograms/counters and every engine's metrics.
  void ResetMetrics();

  /// Registers the full sharded-serving surface on `registry`:
  ///   "<prefix>.shard<s>.*"                per-engine metrics
  ///                                        (QueryEngine::RegisterMetrics)
  ///   "<prefix>.shard<s>.routed.latency.us" per routed query latency
  ///   "<prefix>.shard<s>.routed.queries"   routed query counter
  ///   "<prefix>.router.fanout.total"       query->shard routing slots
  ///   "<prefix>.router.multi_shard_queries" queries fanned to >1 shard
  ///   "<prefix>.router.shard_imbalance"    object-count max/mean gauge
  ///                                        (BalanceReport)
  ///   "<prefix>.router.pool.queue_depth"   the router pool's queued tasks
  /// The router must outlive the registry's last snapshot.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  /// Histograms and atomics are non-movable; unique_ptr keeps the vector
  /// regular while workers record through stable addresses.
  ///
  /// The router holds no mutex of its own: engines_/shard_obs_ are built
  /// in the constructor and immutable afterwards, per-worker accumulation
  /// is relaxed-atomic, and per-call completion is RunWorkers' own (whose
  /// internal lock discipline is compile-time checked via
  /// common/thread_annotations.h). Any future mutable router state — e.g.
  /// the streaming merge or admission queues on the ROADMAP — must be
  /// UVD_GUARDED_BY an annotated Mutex (docs/STATIC_ANALYSIS.md).
  struct ShardObs {
    obs::LatencyHistogram routed_latency_us;
    std::atomic<uint64_t> routed_queries{0};
  };

  const ShardedUVDiagram& diagram_;
  ShardRouterOptions options_;
  int router_threads_;                // resolved width of the shard fan-out
  std::unique_ptr<ThreadPool> pool_;  // outlives engines_, which borrow it
  std::vector<std::unique_ptr<query::QueryEngine>> engines_;
  std::vector<std::unique_ptr<ShardObs>> shard_obs_;  // parallel to engines_
  std::atomic<uint64_t> fanout_total_{0};
  std::atomic<uint64_t> multi_shard_queries_{0};
};

}  // namespace shard
}  // namespace uvd

#endif  // UVD_SHARD_SHARD_ROUTER_H_
