#include "uncertain/distance_dist.h"

#include <algorithm>
#include <cmath>

#include "geom/circle_ops.h"

namespace uvd {
namespace uncertain {

DistanceDistribution::DistanceDistribution(const UncertainObject& obj, geom::Point q)
    : obj_(obj),
      center_dist_(geom::Distance(obj.center(), q)),
      lower_(obj.DistMin(q)),
      upper_(obj.DistMax(q)) {}

double DistanceDistribution::Cdf(double d) const {
  if (d <= lower_) return d == upper_ ? 1.0 : 0.0;  // point object: step
  if (d >= upper_) return 1.0;
  const RadialHistogramPdf& pdf = obj_.pdf();
  if (obj_.radius() <= 0.0) {
    return d >= center_dist_ ? 1.0 : 0.0;
  }
  // Ring b's part of Cir(q, d) is lens(boundary b+1) - lens(boundary b).
  // RingOuter(b) and RingInner(b+1) are the same expression, hence the same
  // bits, so a ring's outer lens is reused as the next ring's inner lens.
  int lens_boundary = -1;  // boundary index whose lens is in `lens`
  double lens = 0.0;
  double acc = 0.0;
  for (int b = 0; b < pdf.num_bars(); ++b) {
    const double mass = pdf.bars()[static_cast<size_t>(b)];
    if (mass == 0.0) continue;
    const double r_in = pdf.RingInner(b);
    const double r_out = pdf.RingOuter(b);
    // Fast paths: ring entirely within / beyond distance d from q.
    if (center_dist_ + r_out <= d) {
      acc += mass;
      continue;
    }
    const double nearest = std::max(
        0.0, std::max(center_dist_ - r_out, r_in - center_dist_));
    if (nearest >= d) continue;
    const double ring_area = M_PI * (r_out * r_out - r_in * r_in);
    if (ring_area <= 0.0) {
      // Degenerate ring (zero width): treat as circle boundary mass.
      if (center_dist_ <= d) acc += mass;
      continue;
    }
    const double inner =
        lens_boundary == b ? lens : geom::LensArea(center_dist_, d, r_in);
    lens = geom::LensArea(center_dist_, d, r_out);
    lens_boundary = b + 1;
    acc += mass * ((lens - inner) / ring_area);
  }
  return std::clamp(acc, 0.0, 1.0);
}

}  // namespace uncertain
}  // namespace uvd
