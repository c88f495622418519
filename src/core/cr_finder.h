// Algorithm 2 (paper Sec. IV): derive the candidate reference objects C_i
// of each object without computing its exact UV-cell.
//
//   Step 1  initPossibleRegion — k-NN seeds (k = 300), one per 45-degree
//           sector (k_s = 8), build the initial possible region P_i.
//   Step 2  indexPrune (I-pruning, Lemma 2) — circular range query of
//           radius 2d - r_i around c_i on the R-tree, where d is the
//           maximum distance of P_i from c_i.
//   Step 3  compPrune (C-pruning, Lemma 3) — keep O_j only if its center
//           falls inside some d-bound Cir(v_m, dist(v_m, c_i)) at a convex
//           hull vertex v_m of P_i.
//
// The result C_i is a superset of the true r-objects F_i.
#ifndef UVD_CORE_CR_FINDER_H_
#define UVD_CORE_CR_FINDER_H_

#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/uv_cell.h"
#include "geom/box.h"
#include "rtree/rtree.h"
#include "rtree/traversal_session.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {

/// Tuning parameters with the paper's experimental defaults (Sec. VI).
struct CrFinderOptions {
  int num_sectors = 8;  ///< k_s: domain sectors around c_i.
  /// When the seed region reaches beyond the k-NN ball, refine it with the
  /// whole (already fetched) k-NN pool. Every pool member's outside region
  /// is a genuine constraint, so this strictly shrinks P_i while keeping
  /// it a superset of U_i, and Lemmas 2-3 stay valid. Disable to reproduce
  /// plain Sec. IV-B behaviour (ablation: bench_ablation_seeds).
  bool adaptive_seed_widening = true;
  /// Stage-1 kernel implementation (geom/batch/kernels.h): C-pruning, the
  /// widening subtraction loop and, in the build pipeline, exact-cell
  /// refinement. Both modes produce identical C_i sets and index bytes;
  /// kScalar is the determinism oracle and is only set by tests.
  geom::KernelMode kernel_mode = geom::KernelMode::kBatch;
  /// Stage-1 R-tree traversal (core/build_pipeline.h). The pipeline reads
  /// it when it makes each worker's workspace: kShared gives the worker a
  /// TraversalSession. Single-anchor live inserts run the per-anchor path,
  /// which gives identical candidates. kPerAnchor is the determinism
  /// oracle and is only set by tests.
  rtree::TraversalMode traversal_mode = rtree::TraversalMode::kShared;
};

/// Output of Algorithm 2 for one object, plus pruning diagnostics used by
/// Fig. 7(b). Its phases are trace spans: cr/seed (Step 1) and cr/prune
/// (Steps 2-3), split orthogonally into cr/traversal (both R-tree queries,
/// with their rtree/decode leaf reads) and cr/kernel (seed widening and
/// C-pruning).
struct CrResult {
  std::vector<int> seeds;          ///< Seed object ids (<= num_sectors).
  std::vector<int> cr_objects;     ///< C_i, sorted ascending.
  double max_dist = 0.0;           ///< d of Lemma 2 (from the seed region).
  size_t after_i_pruning = 0;      ///< |I| (survivors of Step 2).
  size_t considered = 0;           ///< n - 1.
};

/// Per-worker reusable state for the Algorithm 2 hot loop. A null/default
/// workspace reproduces the historical behaviour exactly; passing one
/// across calls removes the per-anchor heap and output allocations
/// (scratch + buffers), and installing a TraversalSession additionally
/// answers both R-tree queries from the session's shared entry pool
/// (rtree/traversal_session.h). Candidate sets are bitwise identical
/// either way. Not thread-safe: one workspace per worker.
struct CrFinderWorkspace {
  rtree::TraversalScratch scratch;  ///< Per-anchor (oracle) traversal buffers.
  /// Non-null = TraversalMode::kShared: reuse the entry pool across anchors.
  std::unique_ptr<rtree::TraversalSession> session;
  std::vector<rtree::LeafEntry> knn;         ///< k-NN output buffer.
  std::vector<rtree::LeafEntry> candidates;  ///< Range-query output buffer.

  /// The first R-tree leaf-read failure of any Find through this workspace,
  /// sticky; OK when none. A Find that hits one returns an incomplete C_i.
  const Status& status() const {
    return session != nullptr ? session->status() : scratch.status;
  }
};

/// \brief Runs Algorithm 2 against a dataset indexed by an R-tree.
///
/// Objects must be stored in id order (objects[i].id() == i), which all
/// dataset generators guarantee.
///
/// Thread safety: Find() and BuildSeedRegion() are const and mutate nothing
/// but the Stats tickers, which are relaxed atomics — so one finder may be
/// shared by concurrent callers. The parallel build pipeline still gives
/// each worker its own finder with a private Stats shard to keep the hot
/// envelope/hyperbola tickers contention-free (see core/build_pipeline.h).
class CrObjectFinder {
 public:
  CrObjectFinder(const std::vector<uncertain::UncertainObject>& objects,
                 const rtree::RTree& tree, const geom::Box& domain,
                 const CrFinderOptions& options = {}, Stats* stats = nullptr);

  /// Derives C_i for objects[index]. `ws` (optional) supplies reusable
  /// buffers and, when it carries a session, the shared traversal; leaf-read
  /// failures are visible only through its status().
  CrResult Find(size_t index, CrFinderWorkspace* ws = nullptr) const;

  /// Step 1 only: the seed-based initial possible region P_i (exposed for
  /// tests and for ICR's refinement).
  UVCell BuildSeedRegion(size_t index, std::vector<int>* seed_ids = nullptr,
                         CrFinderWorkspace* ws = nullptr) const;

 private:
  std::vector<int> SelectSeeds(size_t index,
                               const std::vector<rtree::LeafEntry>& knn) const;

  const std::vector<uncertain::UncertainObject>& objects_;
  const rtree::RTree& tree_;
  geom::Box domain_;
  CrFinderOptions options_;
  Stats* stats_;
};

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_CR_FINDER_H_
