#include "shard/shard_router.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "obs/trace_recorder.h"

namespace uvd {
namespace shard {

ShardRouter::ShardRouter(const ShardedUVDiagram& diagram,
                         const ShardRouterOptions& options)
    : diagram_(diagram),
      options_(options),
      // Default: one slot per shard, NOT capped at hardware concurrency — a
      // disk-bound shard spends its time blocked in page reads, so fanning
      // all shards even on few cores is what hides the latency.
      router_threads_(options.router_threads > 0 ? options.router_threads
                                                 : static_cast<int>(diagram.num_shards())) {
  const int workers = router_threads_ * ThreadPool::ResolveThreads(options_.engine.threads);
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers - 1);
  engines_.reserve(diagram.num_shards());
  shard_obs_.reserve(diagram.num_shards());
  for (size_t s = 0; s < diagram.num_shards(); ++s) {
    engines_.push_back(std::make_unique<query::QueryEngine>(
        diagram.ViewOfShard(s), options_.engine, pool_.get()));
    shard_obs_.push_back(std::make_unique<ShardObs>());
  }
}

void ShardRouter::InvalidateCaches() {
  for (auto& engine : engines_) engine->InvalidateCache();
}

obs::LatencyHistogram ShardRouter::MergedKindLatency(
    query::QueryKind kind) const {
  obs::LatencyHistogram merged;
  for (const auto& engine : engines_) {
    merged.MergeFrom(engine->kind_latency(kind));
  }
  return merged;
}

void ShardRouter::ResetMetrics() {
  for (auto& engine : engines_) engine->ResetMetrics();
  for (auto& so : shard_obs_) {
    so->routed_latency_us.Reset();
    so->routed_queries.store(0, std::memory_order_relaxed);
  }
  fanout_total_.store(0, std::memory_order_relaxed);
  multi_shard_queries_.store(0, std::memory_order_relaxed);
}

void ShardRouter::RegisterMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  for (size_t s = 0; s < engines_.size(); ++s) {
    const std::string shard_prefix = prefix + ".shard" + std::to_string(s);
    engines_[s]->RegisterMetrics(registry, shard_prefix);
    const ShardObs* so = shard_obs_[s].get();
    registry->RegisterHistogram(shard_prefix + ".routed.latency.us",
                                &so->routed_latency_us);
    registry->RegisterCounter(shard_prefix + ".routed.queries", [so] {
      return so->routed_queries.load(std::memory_order_relaxed);
    });
    registry->RegisterHistogram(shard_prefix + ".storage.page.read.latency.us",
                                &diagram_.shard(s).pm->read_latency_histogram());
  }
  if (pool_ != nullptr) {
    const ThreadPool* pool = pool_.get();
    registry->RegisterGauge(prefix + ".router.pool.queue_depth", [pool] {
      return static_cast<double>(pool->QueueDepth());
    });
  }
  registry->RegisterCounter(prefix + ".router.fanout.total", [this] {
    return fanout_total_.load(std::memory_order_relaxed);
  });
  registry->RegisterCounter(prefix + ".router.multi_shard_queries", [this] {
    return multi_shard_queries_.load(std::memory_order_relaxed);
  });
  registry->RegisterGauge(prefix + ".router.shard_imbalance", [this] {
    // Object-count max/mean across shards, the BalanceReportString footer
    // ratio (1.0 = perfectly balanced). Snapshot-time evaluation keeps the
    // gauge current after inserts.
    const auto report = diagram_.BalanceReport();
    if (report.empty()) return 1.0;
    size_t max_objects = 0, total = 0;
    for (const auto& b : report) {
      max_objects = std::max(max_objects, b.objects);
      total += b.objects;
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(report.size());
    return mean > 0.0 ? static_cast<double>(max_objects) / mean : 1.0;
  });
}

std::vector<query::QueryResult> ShardRouter::ExecuteBatch(
    const query::QueryBatch& batch) {
  UVD_TRACE_SPAN("router", "execute_batch");
  const size_t num_shards = engines_.size();
  std::vector<query::QueryResult> results(batch.size());

  // Plan: per-shard sub-batches of (global index, query). Multi-shard
  // kinds appear in several plans and are merged below.
  struct Slot {
    size_t global;
    query::Query query;
  };
  // `timed` is sampled once per batch (same story as the engine) so the
  // fan-out counters and routed-latency records agree within a batch.
  const bool timed = obs::MetricsEnabled();
  uint64_t multi_shard = 0;
  std::vector<std::vector<Slot>> plan(num_shards);
  for (size_t i = 0; i < batch.size(); ++i) {
    const query::Query& q = batch[i];
    switch (q.kind) {
      case query::QueryKind::kPnn:
      case query::QueryKind::kAnswerIds: {
        const int s = diagram_.ShardIndexForPoint(q.point);
        plan[static_cast<size_t>(s)].push_back({i, q});
        break;
      }
      case query::QueryKind::kUvPartitions: {
        const std::vector<int> targets = diagram_.ShardsForRange(q.range);
        if (targets.size() > 1) ++multi_shard;
        for (int s : targets) {
          plan[static_cast<size_t>(s)].push_back({i, q});
        }
        // No intersecting shard: an unsharded index answers a disjoint
        // range with an empty list too, so the default result stands.
        break;
      }
      case query::QueryKind::kCellSummary: {
        std::vector<int> targets = diagram_.ShardsForObject(q.object_id);
        // Unregistered ids still need the canonical NotFound an unsharded
        // scan produces; any shard's scan yields it.
        if (targets.empty()) targets.push_back(0);
        if (targets.size() > 1) ++multi_shard;
        for (int s : targets) {
          plan[static_cast<size_t>(s)].push_back({i, q});
        }
        break;
      }
    }
  }
  if (timed) {
    uint64_t slots = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      slots += plan[s].size();
      if (!plan[s].empty()) {
        shard_obs_[s]->routed_queries.fetch_add(plan[s].size(),
                                                std::memory_order_relaxed);
      }
    }
    fanout_total_.fetch_add(slots, std::memory_order_relaxed);
    multi_shard_queries_.fetch_add(multi_shard, std::memory_order_relaxed);
  }

  // Execute the non-empty sub-batches, concurrently across shards when the
  // router has a pool. Engines guarantee in-order sub-results, so each
  // shard's answers line up with its plan.
  std::vector<std::vector<query::QueryResult>> shard_results(num_shards);
  const auto run_shard = [&](size_t s) {
    UVD_TRACE_SPAN("router", "route_shard");
    query::QueryBatch sub;
    sub.reserve(plan[s].size());
    for (const Slot& slot : plan[s]) sub.push_back(slot.query);
    if (timed) {
      // Every query of the sub-batch waited the sub-batch's wall time, so
      // each routed query is one sample of it.
      const uint64_t t0 = obs::NowMicros();
      shard_results[s] = engines_[s]->ExecuteBatch(sub);
      shard_obs_[s]->routed_latency_us.RecordMany(obs::NowMicros() - t0, sub.size());
    } else {
      shard_results[s] = engines_[s]->ExecuteBatch(sub);
    }
  };
  std::vector<size_t> active;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!plan[s].empty()) active.push_back(s);
  }
  // RunWorkers waits for exactly this call's workers, so concurrent router
  // batches share the pool without waiting on each other's drain; with one
  // active shard it runs inline. Each engine's fan-out nests on the pool.
  const int tasks =
      static_cast<int>(std::min<size_t>(active.size(), static_cast<size_t>(router_threads_)));
  std::atomic<size_t> next{0};
  RunWorkers(pool_.get(), tasks, [&](int) {
    for (;;) {
      const size_t a = next.fetch_add(1, std::memory_order_relaxed);
      if (a >= active.size()) return;
      run_shard(active[a]);
    }
  });

  // Reassemble positionally; ascending shard order makes multi-shard
  // merges deterministic for every thread configuration.
  std::vector<size_t> merged_so_far(batch.size(), 0);
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t k = 0; k < plan[s].size(); ++k) {
      const size_t i = plan[s][k].global;
      query::QueryResult& partial = shard_results[s][k];
      query::QueryResult& out = results[i];
      switch (batch[i].kind) {
        case query::QueryKind::kPnn:
        case query::QueryKind::kAnswerIds:
          out = std::move(partial);
          break;
        case query::QueryKind::kUvPartitions:
          out.partitions.insert(out.partitions.end(),
                                std::make_move_iterator(partial.partitions.begin()),
                                std::make_move_iterator(partial.partitions.end()));
          break;
        case query::QueryKind::kCellSummary: {
          // Merge found summaries (shard leaves are disjoint, so areas and
          // leaf counts add); keep NotFound only if every shard said so.
          const bool first = merged_so_far[i] == 0;
          if (first) out.status = partial.status;
          if (partial.status.ok()) {
            if (first || !out.status.ok()) {
              // First found shard (possibly after earlier NotFounds).
              out.status = Status::OK();
              out.cell_summary = core::UvCellSummary{};
              out.cell_summary.extent = geom::Box::Empty();
            }
            out.cell_summary.area += partial.cell_summary.area;
            out.cell_summary.num_leaves += partial.cell_summary.num_leaves;
            out.cell_summary.extent.ExpandToInclude(partial.cell_summary.extent);
          }
          ++merged_so_far[i];
          break;
        }
      }
    }
  }
  return results;
}

}  // namespace shard
}  // namespace uvd
