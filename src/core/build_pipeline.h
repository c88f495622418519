// Staged UV-index construction pipeline (paper Sec. VI-B.3, parallelized).
//
// Construction decomposes into two stages per object:
//
//   Stage 1 — candidate generation: Algorithm 2 pruning (CrObjectFinder::
//             Find) and, for Basic/ICR, exact-cell refinement. Pure
//             function of the immutable dataset + R-tree: embarrassingly
//             parallel across objects.
//   Stage 2 — index insertion: Algorithm 3 (UVIndex::InsertObject).
//             Order-sensitive — split decisions depend on the resident
//             set — so naively it is serial.
//
// RunBuildPipeline runs the two as disjoint phases on one path for every
// worker count: ComputeStage1Candidates materializes stage 1 across the
// workers, then RunStage2 hands the results to
// UVIndex::InsertObjectsPartitioned and finalizes.
// With one worker that is the plain serial insertion loop; with more, a
// short serial prefix grows the top-level scaffold, every object is routed
// to each frontier subtree its UV-cell may overlap, subtrees build
// independently in private node arenas, and a canonical stitch renumbers
// the new nodes into the serial creation order (see
// UVIndex::InsertObjectsPartitioned for the full contract). Sharded builds
// (src/shard/) call RunStage2 once per shard. build_threads <= 0 uses
// hardware concurrency; either way a build of n objects runs at most n
// workers.
//
// Each construction switch is one field, on the options of the code it
// switches: CrFinderOptions::kernel_mode and ::traversal_mode (stage 1,
// read here through BuildPipelineOptions::cr) and UVIndexOptions::
// kernel_mode (stage 2). Their non-default settings (kScalar, kPerAnchor)
// are the determinism oracles and are set only by tests. Stage-1
// traversal strategies (rtree::TraversalMode):
//
//   * kShared (default): anchors are swept in Morton order in tiles of
//     kTraversalTileSize (64, build_pipeline.cc); each worker reuses one
//     rtree::TraversalSession across its tiles (entry pool,
//     previous-anchor distance bound, decoded-leaf memo). Candidate sets
//     are byte-identical to kPerAnchor for every thread count.
//   * kPerAnchor: the historical root-restart per object — the traversal
//     determinism oracle.
//
// Determinism guarantee: the quad-tree structure, leaf tuples, page layout
// and every BuildStats field are byte-identical to inserting
// the objects one by one with UVIndex::InsertObject, for every worker
// count, frontier depth, KernelMode and TraversalMode. Stats tickers are
// exact across worker counts and depths too (the partitioned path replays
// the serial per-leaf pruner-hint evolution, so even the scan-order
// tickers kHyperbolaTests / kFourPointTests match — see uv_index.h; the
// KernelMode axis changes those two). Along the traversal axis the
// work tickers kRtreeNodeVisits / kRtreeLeafReads / kLeafMemo* — and the
// page-I/O counters kPageReads / kBufferPool* that leaf decodes feed — are
// config-dependent under kShared (that saved work is the point); every
// decision-count ticker still matches kPerAnchor exactly.
//
// Phase timing is trace spans only (obs/trace_recorder.h, catalog in
// docs/OBSERVABILITY.md): build/stage1 and build/stage2 are the stage
// walls; cr/*, rtree/decode and build/robject are per-object phases summed
// across workers; build/stage2_* split RunStage2.
#ifndef UVD_CORE_BUILD_PIPELINE_H_
#define UVD_CORE_BUILD_PIPELINE_H_

#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cr_finder.h"
#include "core/uv_index.h"
#include "geom/box.h"
#include "rtree/rtree.h"
#include "rtree/traversal_session.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {

// The three construction methods evaluated in the paper (Sec. VI-B.3):
//
//   Basic — Algorithm 1 per object: build the exact UV-cell against all
//           n-1 others, then index its r-objects. Exponential-flavored
//           cost; the paper reports 97 hours at 50K objects.
//   ICR   — I- and C-pruning (Algorithm 2) to get cr-objects, refine them
//           into exact r-objects by building the exact cell from the
//           candidates, then index the r-objects.
//   IC    — I- and C-pruning only; index the cr-objects directly. The
//           paper's winner (about 10% of ICR's time at 70K).
enum class BuildMethod {
  kBasic,
  kICR,
  kIC,
};

const char* BuildMethodName(BuildMethod m);

/// Pruning diagnostics (Fig. 7(b)/(f)): per-object means accumulated in
/// id order, bit-identical for every worker count. The Fig. 7(a)/(c)-(e)
/// time breakdowns are the build's trace spans.
struct BuildStats {
  double i_pruning_ratio = 0.0;   ///< Avg fraction pruned by I-pruning.
  double c_pruning_ratio = 0.0;   ///< Avg fraction pruned after C-pruning.
  double avg_cr_objects = 0.0;    ///< Mean |C_i| (IC / ICR).
  double avg_r_objects = 0.0;     ///< Mean |F_i| (Basic / ICR).
};

/// Pipeline configuration.
struct BuildPipelineOptions {
  BuildMethod method = BuildMethod::kIC;
  CrFinderOptions cr;
  /// Worker count for both stages. <= 0: hardware concurrency; 1: no
  /// pool, both stages on the calling thread. Any value yields a
  /// byte-identical index.
  int build_threads = 0;
  /// Partition frontier depth cap of the parallel stage 2 (clamped to
  /// [1, 3]; see UVIndex::PartitionedInsertOptions).
  int stage2_max_depth = 2;
};

/// Runs the staged pipeline: ComputeStage1Candidates, then RunStage2, on
/// min(build_threads, n) workers, the caller and a pool of the rest. `tree`
/// is the R-tree over the same objects (Algorithm 2's k-NN and range
/// queries); `ptrs` are the ObjectStore pointers stored in leaf tuples.
/// Objects must be in id order (objects[i].id() == i); `index` must be fresh.
Status RunBuildPipeline(const std::vector<uncertain::UncertainObject>& objects,
                        const std::vector<uncertain::ObjectPtr>& ptrs,
                        const rtree::RTree& tree, const geom::Box& domain,
                        const BuildPipelineOptions& options, UVIndex* index,
                        BuildStats* build_stats = nullptr, Stats* stats = nullptr);

/// Stage 2, the one insertion path of every build: inserts `items` in
/// order into the fresh `index` (UVIndex::InsertObjectsPartitioned with
/// `workers` workers and frontier depth `max_depth`), then finalizes it
/// with the same workers. `pool` may be null, which runs both steps on the
/// calling thread, and may be shared with sibling builds. The index
/// serializes identically for every worker count and depth. Runs under
/// the build/stage2 span; FinalizeWith under build/stage2_finalize.
Status RunStage2(std::vector<UVIndex::BulkInsertItem> items, ThreadPool* pool,
                 int workers, int max_depth, UVIndex* index);

/// Stage 1 alone, materialized: index_ids->at(i) holds the ids whose
/// outside regions describe object i's UV-cell (cr-objects for IC,
/// r-objects for ICR/Basic) — exactly what RunBuildPipeline feeds stage 2.
/// Fans out over min(build_threads, n) workers with per-worker Stats
/// shards, on `pool` when given (the pool the caller's stage 2 reuses)
/// and otherwise on a pool of its own; per-object results and the
/// BuildStats aggregation are accumulated in id order, so the output is
/// bit-identical for every thread count. Sharded construction (src/shard/)
/// runs this once against the global population, then runs RunStage2 on
/// every sub-domain index with the objects whose cells overlap it — the
/// per-subdomain build/merge split of divide-and-conquer Voronoi
/// construction. Runs under the build/stage1 span.
Status ComputeStage1Candidates(const std::vector<uncertain::UncertainObject>& objects,
                               const rtree::RTree& tree, const geom::Box& domain,
                               const BuildPipelineOptions& options,
                               std::vector<std::vector<int>>* index_ids,
                               BuildStats* build_stats = nullptr,
                               Stats* stats = nullptr, ThreadPool* pool = nullptr);

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_BUILD_PIPELINE_H_
