// Distance distribution of an uncertain object from a fixed query point:
// the CDF F(d) = P(dist(q, X) <= d) obtained by intersecting the disk
// Cir(q, d) with the pdf's histogram rings. This is the kernel of the
// numerical-integration probability computation of [14] that the paper
// uses for PNN answers (Sec. VI-A).
#ifndef UVD_UNCERTAIN_DISTANCE_DIST_H_
#define UVD_UNCERTAIN_DISTANCE_DIST_H_

#include "geom/point.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {

/// CDF of the Euclidean distance between a query point and an uncertain
/// object's (random) position.
class DistanceDistribution {
 public:
  DistanceDistribution(const UncertainObject& obj, geom::Point q);

  /// P(dist(q, X) <= d). Monotone, 0 below dist_min, 1 above dist_max.
  double Cdf(double d) const;

  /// Support bounds: [dist_min(O, q), dist_max(O, q)].
  double lower() const { return lower_; }
  double upper() const { return upper_; }

 private:
  const UncertainObject& obj_;
  double center_dist_;
  double lower_;
  double upper_;
};

}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_UNCERTAIN_DISTANCE_DIST_H_
