#include "query/query_engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/pattern_queries.h"
#include "core/pnn.h"
#include "obs/trace_recorder.h"

namespace uvd {
namespace query {

namespace {

DiagramView ViewOf(const core::UVDiagram& diagram) {
  DiagramView view;
  view.index = &diagram.index();
  view.store = &diagram.store();
  view.qualification = diagram.options().qualification;
  view.stats = &diagram.stats();
  return view;
}

}  // namespace

QueryEngine::QueryEngine(const core::UVDiagram& diagram,
                         const QueryEngineOptions& options)
    : QueryEngine(ViewOf(diagram), options) {}

QueryEngine::QueryEngine(const DiagramView& view, const QueryEngineOptions& options,
                         ThreadPool* pool)
    : view_(view),
      options_(options),
      threads_(ThreadPool::ResolveThreads(options.threads)),
      pool_(pool) {
  UVD_CHECK(view_.index != nullptr);
  UVD_CHECK(view_.store != nullptr);
  if (options_.enable_cache) {
    cache_ = std::make_unique<QueryCache>(options_.cache);
  }
  if (pool_ == nullptr && threads_ > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(threads_ - 1);
    pool_ = owned_pool_.get();
  }
}

void QueryEngine::InvalidateCache() {
  if (cache_ != nullptr) cache_->Clear();
}

std::vector<Stats> QueryEngine::worker_stats() const {
  MutexLock lock(stats_mu_);
  return worker_stats_;
}

Result<std::vector<rtree::LeafEntry>> QueryEngine::CandidatesFor(
    const geom::Point& p, Stats* shard) const {
  const core::UVIndex& index = *view_.index;
  uint32_t leaf = 0;
  {
    UVD_TRACE_SPAN("query", "locate_leaf");
    UVD_ASSIGN_OR_RETURN(leaf, index.LocateLeafChecked(p));
  }
  if (cache_ != nullptr) {
    UVD_TRACE_SPAN("query", "cache_lookup");
    return cache_->GetOrLoad(
        leaf,
        [&index, leaf] {
          UVD_TRACE_SPAN("query", "read_leaf");
          return index.ReadLeafEntries(leaf);
        },
        shard);
  }
  UVD_TRACE_SPAN("query", "read_leaf");
  return index.ReadLeafEntries(leaf);
}

QueryResult QueryEngine::ExecuteOne(const Query& q, Stats* shard) const {
  QueryResult result;
  switch (q.kind) {
    case QueryKind::kPnn: {
      auto candidates = CandidatesFor(q.point, shard);
      if (!candidates.ok()) {
        result.status = candidates.status();
        break;
      }
      auto answers = [&] {
        UVD_TRACE_SPAN("query", "qualification");
        return core::EvaluatePnnFromCandidates(std::move(candidates).value(),
                                               *view_.store, q.point,
                                               view_.qualification, shard);
      }();
      if (!answers.ok()) {
        result.status = answers.status();
        break;
      }
      result.pnn = std::move(answers).value();
      break;
    }
    case QueryKind::kAnswerIds: {
      auto candidates = CandidatesFor(q.point, shard);
      if (!candidates.ok()) {
        result.status = candidates.status();
        break;
      }
      result.answer_ids =
          core::AnswerIdsFromCandidates(std::move(candidates).value(), q.point);
      break;
    }
    case QueryKind::kUvPartitions: {
      result.partitions = core::RetrieveUvPartitions(*view_.index, q.range, shard);
      break;
    }
    case QueryKind::kCellSummary: {
      auto summary = core::RetrieveUvCellSummary(*view_.index, q.object_id,
                                                 /*use_offline_lists=*/true, shard);
      if (!summary.ok()) {
        result.status = summary.status();
        break;
      }
      result.cell_summary = summary.value();
      break;
    }
  }
  return result;
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(const QueryBatch& batch) {
  UVD_TRACE_SPAN("query", "execute_batch");
  std::vector<QueryResult> results(batch.size());
  const int workers =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(threads_), batch.size()));

  // Every shard is call-local: concurrent ExecuteBatch callers on one
  // engine (e.g. two front-ends sharing a shard) never touch each other's
  // counters. The member copy below exists only for worker_stats()
  // observability and is the one cross-call write, hence the mutex.
  std::vector<Stats> shards;
  // The fan-out's latency shards follow the same call-local story, merged
  // into kind_latency_ at the end (MergeFrom is atomic-safe for concurrent
  // callers). The inline path records straight into kind_latency_
  // (relaxed atomics): a shard would cost a 976-bucket zeroing and merge
  // per kind on every call, more than a one-query batch itself. `timed`
  // is sampled once so a mid-batch toggle cannot split a query between
  // recorded and unrecorded halves.
  const bool timed = obs::MetricsEnabled();
  using KindLatencyShard = std::array<obs::LatencyHistogram, kNumQueryKinds>;
  std::vector<KindLatencyShard> latency_shards;

  if (pool_ == nullptr || workers <= 1) {
    shards.assign(1, Stats());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (timed) {
        const uint64_t t0 = obs::NowMicros();
        results[i] = ExecuteOne(batch[i], &shards[0]);
        kind_latency_[static_cast<size_t>(batch[i].kind)].Record(obs::NowMicros() - t0);
      } else {
        results[i] = ExecuteOne(batch[i], &shards[0]);
      }
    }
  } else {
    // Fan-out: workers claim slots through the cursor; results are written
    // positionally, so submission order is preserved for free.
    shards.assign(static_cast<size_t>(workers), Stats());
    latency_shards.resize(static_cast<size_t>(workers));
    std::atomic<size_t> next{0};
    RunWorkers(pool_, workers, [&](int w) {
      UVD_TRACE_SPAN("query", "batch_worker");
      Stats* shard = &shards[static_cast<size_t>(w)];
      KindLatencyShard& latency = latency_shards[static_cast<size_t>(w)];
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.size()) return;
        if (timed) {
          const uint64_t t0 = obs::NowMicros();
          results[i] = ExecuteOne(batch[i], shard);
          latency[static_cast<size_t>(batch[i].kind)].Record(obs::NowMicros() - t0);
        } else {
          results[i] = ExecuteOne(batch[i], shard);
        }
      }
    });
  }

  if (view_.stats != nullptr) {
    for (const Stats& shard : shards) view_.stats->MergeFrom(shard);
  }
  if (timed) {
    for (const KindLatencyShard& shard : latency_shards) {
      for (size_t k = 0; k < static_cast<size_t>(kNumQueryKinds); ++k) {
        kind_latency_[k].MergeFrom(shard[k]);
      }
    }
  }
  {
    MutexLock lock(stats_mu_);
    worker_stats_ = std::move(shards);
  }
  return results;
}

void QueryEngine::ResetMetrics() {
  for (auto& h : kind_latency_) h.Reset();
}

void QueryEngine::RegisterMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    registry->RegisterHistogram(
        prefix + ".query." + QueryKindName(kind) + ".latency.us",
        &kind_latency_[static_cast<size_t>(k)]);
  }
  if (cache_ != nullptr) {
    const QueryCache* cache = cache_.get();
    registry->RegisterGauge(prefix + ".cache.size", [cache] {
      return static_cast<double>(cache->size());
    });
    registry->RegisterGauge(prefix + ".cache.protected_size", [cache] {
      return static_cast<double>(cache->protected_size());
    });
  }
  if (owned_pool_ != nullptr) {
    const ThreadPool* pool = owned_pool_.get();
    registry->RegisterGauge(prefix + ".pool.queue_depth", [pool] {
      return static_cast<double>(pool->QueueDepth());
    });
  }
  if (view_.stats != nullptr) {
    registry->RegisterStats(prefix, view_.stats);
  }
}

}  // namespace query
}  // namespace uvd
