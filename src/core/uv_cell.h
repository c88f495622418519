// Exact UV-cell U_i (paper Definition 1): the region where O_i has a
// non-zero probability of being the nearest neighbor. Built by Algorithm 1:
// start from the domain D and subtract the outside region of every other
// object. Internally the cell is the radial lower envelope around c_i
// (geom/envelope.h, derived in geom/radial.h), a circular sequence of
// hyperbolic arcs.
#ifndef UVD_CORE_UV_CELL_H_
#define UVD_CORE_UV_CELL_H_

#include <vector>

#include "common/stats.h"
#include "geom/batch/kernels.h"
#include "geom/box.h"
#include "geom/circle.h"
#include "geom/envelope.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {

/// \brief Exact UV-cell of one anchor object.
class UVCell {
 public:
  /// Fresh cell equals the whole domain (Algorithm 1 Step 2).
  UVCell(const geom::Circle& anchor_region, int anchor_id, const geom::Box& domain,
         Stats* stats = nullptr)
      : anchor_(anchor_region),
        anchor_id_(anchor_id),
        envelope_(anchor_region.center, domain, stats) {}

  /// Algorithm 1 Step 6: U_i <- U_i - X_i(j). Returns true iff the cell
  /// shrank (O_j now owns part of the boundary).
  bool SubtractOutsideRegion(const geom::Circle& other, int other_id) {
    return envelope_.Insert(geom::RadialConstraint::ForObjects(anchor_, other, other_id));
  }

  /// Batch form of the subtraction loop (KernelMode::kBatch): subtracts
  /// others[0..n) in order, precomputing a SoA prefilter over the whole
  /// block and skipping constraints that provably cannot shrink the
  /// envelope (batch::PrefilterSkips — RadialEnvelope::Insert would return
  /// false and leave the envelope bitwise unchanged). The resulting cell is
  /// bitwise-identical to calling SubtractOutsideRegion per element; only
  /// the kEnvelopeInsertions ticker (skipped calls) differs.
  void SubtractOutsideRegions(const geom::Circle* others, const int* ids, size_t n);

  int anchor_id() const { return anchor_id_; }
  const geom::Circle& anchor_region() const { return anchor_; }

  /// Membership: q has O_i among its PNN answer objects iff q is here.
  bool Contains(const geom::Point& q) const { return envelope_.Contains(q); }

  /// r-objects F_i: the objects owning at least one boundary arc. Exact
  /// when every other object was subtracted; a subset-estimate otherwise.
  std::vector<int> RObjects() const { return envelope_.OwnerObjects(); }

  /// Maximum distance d of the cell from c_i (Lemma 2's d).
  double MaxDistanceFromCenter() const { return envelope_.MaxVertexDistance(); }

  /// Boundary vertices; the cell is contained in their convex hull
  /// (Lemma 3's CH(P_i)).
  std::vector<geom::Point> Vertices() const { return envelope_.Vertices(); }

  double Area() const { return envelope_.Area(); }
  geom::Box BoundingBox() const { return envelope_.BoundingBox(); }
  std::vector<geom::Point> Boundary(int samples_per_arc = 16) const {
    return envelope_.ToPolyline(samples_per_arc);
  }

  const geom::RadialEnvelope& envelope() const { return envelope_; }

 private:
  geom::Circle anchor_;
  int anchor_id_;
  geom::RadialEnvelope envelope_;
};

/// Algorithm 1 in full: the exact UV-cell of objects[index] against every
/// other object. O(n) envelope insertions — the "Basic" construction cost.
/// The cell is bitwise-identical for both kernel modes (the scalar loop is
/// the oracle; kBatch only skips provably no-op insertions).
UVCell BuildExactUvCell(const std::vector<uncertain::UncertainObject>& objects,
                        size_t index, const geom::Box& domain, Stats* stats = nullptr,
                        geom::KernelMode kernel = geom::KernelMode::kScalar);

/// The exact UV-cell built only from the given candidate ids (cr-objects):
/// used by ICR to refine cr-objects into exact r-objects.
UVCell BuildUvCellFromCandidates(const std::vector<uncertain::UncertainObject>& objects,
                                 size_t index, const std::vector<int>& candidate_ids,
                                 const geom::Box& domain, Stats* stats = nullptr,
                                 geom::KernelMode kernel = geom::KernelMode::kScalar);

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_UV_CELL_H_
