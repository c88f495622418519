// Sharded UV-index serving (ROADMAP "Sharded index serving"): the domain is
// partitioned into K sub-boxes, each backed by its own core::IndexUnit
// (UV-index, object store and disk), so a deployment can spread one
// diagram's leaf pages and pdf records across several stores and build
// them in parallel — the per-subdomain build/merge split of
// divide-and-conquer Voronoi construction (arXiv:0906.2760), extended to
// uncertain data.
//
// Construction = one global stage 1, K independent stage 2s:
//
//   1. Stage 1 (candidate generation) runs ONCE against the full
//      population, reusing the build pipeline's fan-out
//      (core::ComputeStage1Candidates, configured by the same
//      core::PipelineOptionsFor as UVDiagram::Build). Every object's cell
//      description (cr-/r-objects) is therefore identical to what an
//      unsharded build would index.
//   2. Border replication: an object is registered with EVERY shard whose
//      sub-box its UV-cell may overlap (core::UvCellMayOverlap — the
//      Algorithm 5 test against the shard box). An object whose
//      uncertainty region or cell straddles a cut line thus lives in all
//      touching shards; objects interior to one shard live in exactly one.
//   3. Each shard bulk-loads its registered objects into a private
//      ObjectStore (tuples keep GLOBAL ids) and inserts them — in global
//      id order, with their global cell descriptions — into a UVIndex
//      whose domain is the shard box. Shard builds fan out across the
//      worker pool; each shard's storage and stats are private, so the
//      builds share nothing but the read-only stage-1 output. Each shard's
//      insertion is the pipeline's own stage 2 (core::RunStage2) with its
//      share of the build threads: the serial insertion loop with one,
//      the domain-partitioned parallel insertion when fewer shards than
//      build threads leave some over — the same bytes either way.
//
// Border-correctness guarantee (the reason replication is by cell, not by
// position): for any query point q, the owning shard's leaf candidate list
// contains every object whose UV-cell contains q — exactly the objects an
// unsharded leaf guarantees (Lemma 4) — because registration uses the same
// conservative overlap test as leaf placement, and that test is monotone
// under box containment. The d_minmax verification then filters both lists
// to the same answer set in the same (id-ascending) order, so PNN answers
// and answer-id lists are BITWISE-IDENTICAL to the unsharded build, cut-line
// probes included (tests/shard/ asserts this by hash).
//
// Point ownership at cut lines is half-open [min, max) per axis (the
// upper/right shard owns the line; see UVIndex::OwnsPoint), except the
// domain's max edge, which clamps to the max-edge shard so boundary probes
// are never dropped. Every point of the closed domain is owned by exactly
// one shard: no drops, no double-answers.
//
// Shard boxes are extent-median cuts (PartitionDomain): a k-d-style
// recursive partitioner that splits the longest axis at the object-count
// median, counting each object by the box its UV-cell is predicted to reach
// (derived from the same stage-1 output), so border replicas are
// anticipated when choosing cuts. Skewed datasets (the Fig. 7(g) Gaussian
// clouds) balance to near-uniform per-shard load, and BalanceReport()
// measures the result. Because only the boxes depend on the data —
// replication and the half-open ownership rule do not — PNN/answer-id
// results stay bitwise-identical to the unsharded build for any cuts.
//
// See docs/ARCHITECTURE.md for the subsystem map, the determinism
// guarantees table and the sharded query data flow.
#ifndef UVD_SHARD_SHARDED_UV_DIAGRAM_H_
#define UVD_SHARD_SHARDED_UV_DIAGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/build_pipeline.h"
#include "core/index_unit.h"
#include "core/uv_diagram.h"
#include "core/uv_index.h"
#include "geom/box.h"
#include "geom/point.h"
#include "query/query_engine.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace shard {

/// The shard partitioner. One value: shard boxes are always extent-median
/// cuts (PartitionDomain). The enum and ShardedUVDiagramOptions::partitioning
/// stay only so e2ebench/bench_e2e.cc, which assigns the field, keeps
/// compiling; no code reads either. The next change to the benchmark
/// deletes that assignment, the field and this enum.
enum class ShardPartitioning {
  kMedian,
};

struct ShardedUVDiagramOptions {
  /// K: number of sub-domain indexes. 1 degenerates to an unsharded build.
  int num_shards = 4;
  /// Read by nothing (see ShardPartitioning).
  ShardPartitioning partitioning = ShardPartitioning::kMedian;
  /// Per-shard build/query configuration. `method` and `cr` drive the
  /// global stage 1 as in an unsharded build; `build_threads` drives both
  /// the stage-1 fan-out and the parallel shard builds; `index`,
  /// `page_size` and `qualification` apply to every shard.
  core::UVDiagramOptions diagram;
};

/// \brief K UV-indexes over a partitioned domain with border replication.
class ShardedUVDiagram {
 public:
  /// One sub-domain: an IndexUnit over its box (private storage, object
  /// store and UV-index) plus its private Stats. `object_ids` are the
  /// GLOBAL ids registered here (ascending); `ptrs[k]` locates
  /// object_ids[k] in this shard's store.
  struct Shard : core::IndexUnit {
    std::unique_ptr<Stats> stats;  // billed by pm/store/index/engine view
    std::vector<int> object_ids;
  };

  /// Builds every shard. Objects must have ids 0..n-1 in order and centers
  /// inside `domain` (the whole-diagram validation; individual shards
  /// accept border objects whose centers lie outside their sub-box). If
  /// `stats` is null an internal Stats receives the global-phase tickers.
  static Result<ShardedUVDiagram> Build(
      std::vector<uncertain::UncertainObject> objects, const geom::Box& domain,
      const ShardedUVDiagramOptions& options = {}, Stats* stats = nullptr);

  /// Reopens a sharded diagram checkpointed under `path_prefix` (shard k's
  /// file is "<path_prefix>.shard<k>"; the shard count comes from shard
  /// 0's manifest). Objects are merged back from the shard stores (border
  /// replicas re-read identically), every shard's UV-index is
  /// deserialized, and `options.diagram` pool/qualification knobs apply to
  /// serving. Damaged files surface the storage layer's typed errors; an
  /// unsharded UVDiagram file yields InvalidArgument.
  static Result<ShardedUVDiagram> Open(const std::string& path_prefix,
                                       const ShardedUVDiagramOptions& options = {},
                                       Stats* stats = nullptr);

  /// Durability point for a file-backed sharded diagram: checkpoints every
  /// shard's IndexUnit with a header naming its place in the fleet (shard
  /// index, fleet size, object count, global domain, registered ids).
  /// InvalidArgument without a storage_path.
  Status Checkpoint();

  /// Checkpoint + close every shard file. The diagram must not be used
  /// afterwards; reopen with Open(). No-op for in-RAM diagrams.
  Status CloseStorage();

  /// True when the shards are backed by paged files.
  bool persistent() const {
    return !shards_.empty() && shards_.front().fpm != nullptr;
  }

  /// The file path of shard `s` under `path_prefix` (exposed for tests and
  /// crash harnesses).
  static std::string ShardFilePath(const std::string& path_prefix, size_t s);

  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t s) const { return shards_[s]; }
  const geom::Box& domain() const { return domain_; }
  const std::vector<uncertain::UncertainObject>& objects() const { return objects_; }
  const ShardedUVDiagramOptions& options() const { return options_; }

  /// The shard owning `p` exclusively: half-open [min, max) ownership at
  /// interior cut lines (upper/right shard wins), clamped to the max-edge
  /// shard on the domain's own max boundary. Points outside the closed
  /// domain clamp to the nearest edge shard, whose index rejects them with
  /// the same InvalidArgument an unsharded query would produce.
  int ShardIndexForPoint(const geom::Point& p) const;

  /// Shards whose (closed) boxes intersect `range`, ascending — every
  /// shard holding leaves a UV-partition query over `range` must visit.
  std::vector<int> ShardsForRange(const geom::Box& range) const;

  /// Shards the object is registered with (ascending); empty for ids never
  /// registered (e.g. out-of-range ids).
  std::vector<int> ShardsForObject(int object_id) const;

  /// QueryEngine view of one shard (its index/store/stats and the shared
  /// qualification options).
  query::DiagramView ViewOfShard(size_t s) const;

  /// Global-phase Stats (stage-1 pruning, scratch R-tree I/O) merged with
  /// every shard's private Stats — the whole deployment's counters.
  Stats AggregateStats() const;

  /// Per-shard load summary: how evenly the median cuts spread objects,
  /// border replicas and leaves over the shards.
  struct ShardBalance {
    int shard = 0;
    size_t objects = 0;   ///< Registered here (border replicas included).
    size_t replicas = 0;  ///< Of those, also registered in another shard.
    size_t leaves = 0;    ///< UV-index leaf count.
    size_t leaf_pages = 0;
    int height = 0;
    uint64_t bytes_on_disk = 0;  ///< Private PageManager footprint.
  };

  /// One ShardBalance per shard, ascending.
  std::vector<ShardBalance> BalanceReport() const;

  /// The report as an aligned table with min/max/imbalance footer (the
  /// object-count max/mean ratio — 1.0 is perfectly balanced), for benches
  /// and ops tooling.
  std::string BalanceReportString() const;

  /// Stage-1 pruning diagnostics of the global candidate pass. Each
  /// shard's build runs under the shard/build_shard span.
  const core::BuildStats& build_stats() const { return build_stats_; }

 private:
  /// Adopts `stats` (an owned Stats when null); Build and Open fill in the
  /// rest.
  ShardedUVDiagram(const ShardedUVDiagramOptions& options, Stats* stats);

  std::vector<uncertain::UncertainObject> objects_;
  geom::Box domain_;
  ShardedUVDiagramOptions options_;
  Stats* stats_ = nullptr;  // external or owned_stats_.get(); global phases
  std::unique_ptr<Stats> owned_stats_;
  std::vector<Shard> shards_;
  core::BuildStats build_stats_;
};

/// Partitions `domain` into exactly `num_shards` boxes by recursive
/// longest-axis cuts at the median of `extents`, one box per object giving
/// where its UV-cell is predicted to reach (ShardedUVDiagram::Build derives
/// them from stage 1). At every split of k shards into ceil/floor halves
/// (kl, kr), the cut c minimizing max(n_lower(c)/kl, n_upper(c)/kr) is
/// chosen, where n_lower/n_upper count the extents touching that side — a
/// straddler counts toward both, anticipating the border replica the cut
/// creates. Candidate cuts are every distinct extent endpoint and the
/// midpoints between consecutive endpoints (the only places the counts
/// change); ties break toward the geometric proportional cut, then toward
/// the smaller coordinate, so cuts are deterministic for a fixed dataset.
/// With no extents every cut is the geometric one. Adjacent boxes share the
/// exact double of their common edge, so half-open ownership tests are
/// exact. `num_shards <= 1` returns the closed domain box itself.
std::vector<geom::Box> PartitionDomain(const geom::Box& domain, int num_shards,
                                       const std::vector<geom::Box>& extents);

}  // namespace shard
}  // namespace uvd

#endif  // UVD_SHARD_SHARDED_UV_DIAGRAM_H_
