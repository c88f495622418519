// Radial (polar) form of UV-edge constraints, the representation behind our
// exact UV-cells (paper Definition 1; the derivation follows below).
//
// For an anchor object O_i(c_i, r_i) and a constraining object O_j(c_j, r_j)
// put w = c_j - c_i and s = r_i + r_j. Along the ray p(t) = c_i + t*u the
// dominance margin f(t) = dist(p, c_i) - dist(p, c_j) is non-decreasing, so
// the ray crosses the UV-edge E_i(j) at most once, at
//
//     rho(u) = (|w|^2 - s^2) / (2 * (u.w - s)),   finite iff u.w > s.
//
// Domain walls use the mirror-image trick (w = 2*d0*n_hat, s = 0), and
// r_i = r_j = 0 reduces to the perpendicular bisector of the classic Voronoi
// diagram. The UV-cell of O_i is exactly the star-shaped region
// { c_i + t*u : 0 <= t <= min_j rho_j(u) }.
#ifndef UVD_GEOM_RADIAL_H_
#define UVD_GEOM_RADIAL_H_

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"

namespace uvd {
namespace geom {

/// Owner ids for the four domain walls (negative so they never collide with
/// object ids, which are >= 0).
enum WallOwner : int {
  kWallLeft = -1,
  kWallRight = -2,
  kWallBottom = -3,
  kWallTop = -4,
};

/// One radial constraint on the UV-cell of an anchor object.
struct RadialConstraint {
  Vec2 w;          ///< c_j - c_i (objects) or 2*d0*n_hat (walls).
  double s = 0.0;  ///< r_i + r_j (objects) or 0 (walls).
  int owner = 0;   ///< Object id, or a WallOwner value.

  /// Half the constant numerator |w|^2 - s^2 of rho.
  double K() const { return 0.5 * (w.Norm2() - s * s); }

  /// True when the constraint imposes nothing (overlapping uncertainty
  /// regions: the paper treats X_i(j) as a zero-area region).
  bool IsVacuous() const { return w.Norm2() <= s * s; }

  /// Distance from the anchor center to the UV-edge along direction u
  /// (unit vector); +infinity when the ray never leaves the cell side.
  double Rho(const Vec2& u) const {
    const double denom = u.Dot(w) - s;
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    return K() / denom;
  }

  double RhoAtAngle(double theta) const { return Rho(UnitVector(theta)); }

  /// Angular interval (phi - alpha, phi + alpha) on which rho is finite,
  /// where phi = angle of w and cos(alpha) = s / |w|. Empty for vacuous
  /// constraints. The interval length is at most pi.
  std::optional<std::pair<double, double>> FiniteDomain() const;

  /// Constraint of O_j on the UV-cell of O_i.
  static RadialConstraint ForObjects(const Circle& anchor, const Circle& other,
                                     int owner_id);

  /// The four domain-wall constraints for an anchor centered at `center`
  /// strictly inside `domain`.
  static std::vector<RadialConstraint> ForDomainWalls(const Point& center,
                                                      const Box& domain);
};

/// Angles (normalized to [0, 2*pi)) at which the radial curves of two
/// constraints intersect: solutions of A*cos(theta) + B*sin(theta) = C
/// derived from rho_1 = rho_2. At most two; tangency returns one. Spurious
/// solutions outside either finite domain are retained (callers re-validate
/// by evaluation; see RadialEnvelope::Insert).
std::vector<double> CrossingAngles(const RadialConstraint& c1,
                                   const RadialConstraint& c2);

/// Allocation-free form: writes the crossings (same values, same order)
/// into out[0..1] and returns their count. The hot path — envelope Insert
/// evaluates this for every (new constraint, boundary owner) pair.
int CrossingAngles(const RadialConstraint& c1, const RadialConstraint& c2,
                   double out[2]);

}  // namespace geom
}  // namespace uvd

#endif  // UVD_GEOM_RADIAL_H_
