// Lower envelope of radial constraints around an anchor center: the exact
// UV-cell (paper Definition 1; the constraint form is derived in
// geom/radial.h). The boundary is a circular sequence of
// hyperbolic arcs (object constraints) and straight segments (domain walls),
// each arc described by the angular interval it owns.
//
// Inserting constraints one at a time is exactly the loop of the paper's
// Algorithm 1 (shrinking the possible region P_i by one outside region
// X_i(j) at a time); the envelope is the result of those subtractions.
#ifndef UVD_GEOM_ENVELOPE_H_
#define UVD_GEOM_ENVELOPE_H_

#include <vector>

#include "common/stats.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/radial.h"

namespace uvd {
namespace geom {

/// One maximal angular interval [begin, end) of the envelope owned by a
/// single constraint. `cidx` indexes RadialEnvelope::constraints();
/// kUnbounded marks directions where no constraint bounds the cell (never
/// present once the domain walls are inserted).
struct EnvelopeArc {
  double begin = 0.0;
  double end = 0.0;
  int cidx = -1;

  static constexpr int kUnbounded = -1;
};

/// \brief Star-shaped region around `center`: { center + t*u : t <= rho(u) }
/// where rho is the pointwise minimum of all inserted constraints.
///
/// The constructor installs the four domain-wall constraints, so a fresh
/// envelope equals the whole domain D — matching Algorithm 1 Step 2
/// ("P_i <- D").
class RadialEnvelope {
 public:
  /// Creates the envelope of an anchor centered at `center` (must lie in
  /// `domain`). `stats`, if given, receives Ticker::kEnvelopeInsertions.
  RadialEnvelope(Point center, const Box& domain, Stats* stats = nullptr);

  /// Shrinks the envelope by one constraint (Algorithm 1 Step 6:
  /// P_i <- P_i - X_i(j)). Returns true iff the constraint now owns at
  /// least one boundary arc (i.e. it changed the region).
  bool Insert(const RadialConstraint& c);

  /// Boundary distance from the anchor center along angle theta.
  double RhoAt(double theta) const;

  /// Owner id of the boundary at angle theta (object id or WallOwner).
  int OwnerAt(double theta) const;

  /// True iff p belongs to the (closed) region.
  bool Contains(const Point& p) const;

  /// Maximum distance d of the region from the anchor center (paper
  /// Lemma 2). Attained at an arc endpoint because each arc's radial
  /// function is monotone in the angular distance from its axis.
  double MaxVertexDistance() const;

  /// Boundary vertices (arc endpoints) in angular order. The region is
  /// contained in the convex hull of these vertices because every
  /// hyperbolic arc bows toward the anchor (paper Lemma 3's CH(P_i)).
  std::vector<Point> Vertices() const;

  /// Distinct ids of objects owning at least one boundary arc: exactly the
  /// r-objects F_i of the paper when all n-1 constraints were inserted.
  /// Wall owners are excluded.
  std::vector<int> OwnerObjects() const;

  /// Region area via the polar formula integral 1/2 * rho(theta)^2 dtheta
  /// (composite Simpson per arc; the integrand is smooth inside each arc).
  double Area() const;

  /// Conservative bounding box from dense boundary sampling plus vertices.
  Box BoundingBox(int samples_per_arc = 32) const;

  /// Boundary polyline for rendering / export.
  std::vector<Point> ToPolyline(int samples_per_arc = 16) const;

  const Point& center() const { return center_; }
  const Box& domain() const { return domain_; }
  const std::vector<EnvelopeArc>& arcs() const { return arcs_; }
  const std::vector<RadialConstraint>& constraints() const { return constraints_; }

 private:
  int ArcIndexAt(double theta) const;
  double RhoOfArc(const EnvelopeArc& arc, double theta) const;

  Point center_;
  Box domain_;
  Stats* stats_;
  std::vector<RadialConstraint> constraints_;
  std::vector<EnvelopeArc> arcs_;
  // Insert scratch, reused across calls: an envelope takes dozens of
  // inserts and a build runs hundreds of thousands of envelopes, so
  // per-call vectors dominate the allocator otherwise.
  std::vector<double> cand_scratch_;
  std::vector<double> angle_scratch_;
  std::vector<int> owner_scratch_;
  std::vector<EnvelopeArc> arc_scratch_;
};

}  // namespace geom
}  // namespace uvd

#endif  // UVD_GEOM_ENVELOPE_H_
