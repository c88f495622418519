// Test oracles for the PNN qualification kernel: the per-ring distance CDF
// and the nested-table integration exactly as they were written before the
// shared-boundary kernel (src/uncertain/distance_dist.cc). Each partial
// ring calls geom::AnnulusCircleIntersectionArea, i.e. computes both of its
// boundary lenses and the query-center distance afresh. The library kernel
// must reproduce these bit for bit.
#ifndef UVD_TESTS_UNCERTAIN_QUALIFICATION_ORACLE_H_
#define UVD_TESTS_UNCERTAIN_QUALIFICATION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geom/circle_ops.h"
#include "uncertain/qualification.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {
namespace oracle {

/// P(dist(q, X) <= d), one AnnulusCircleIntersectionArea per partial ring.
inline double Cdf(const UncertainObject& obj, const geom::Point& q, double d) {
  const double center_dist = geom::Distance(obj.center(), q);
  const double lower = obj.DistMin(q);
  const double upper = obj.DistMax(q);
  if (d <= lower) return d == upper ? 1.0 : 0.0;
  if (d >= upper) return 1.0;
  const RadialHistogramPdf& pdf = obj.pdf();
  if (obj.radius() <= 0.0) return d >= center_dist ? 1.0 : 0.0;
  double acc = 0.0;
  for (int b = 0; b < pdf.num_bars(); ++b) {
    const double mass = pdf.bars()[static_cast<size_t>(b)];
    if (mass == 0.0) continue;
    const double r_in = pdf.RingInner(b);
    const double r_out = pdf.RingOuter(b);
    if (center_dist + r_out <= d) {
      acc += mass;
      continue;
    }
    const double nearest =
        std::max(0.0, std::max(center_dist - r_out, r_in - center_dist));
    if (nearest >= d) continue;
    const double ring_area = M_PI * (r_out * r_out - r_in * r_in);
    if (ring_area <= 0.0) {
      if (center_dist <= d) acc += mass;
      continue;
    }
    const double inter =
        geom::AnnulusCircleIntersectionArea(q, d, obj.center(), r_in, r_out);
    acc += mass * (inter / ring_area);
  }
  return std::clamp(acc, 0.0, 1.0);
}

/// ComputeQualificationProbabilities over a per-object vector-of-vectors
/// CDF table filled by oracle::Cdf (default integration_steps).
inline std::vector<PnnAnswer> Qualification(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    int integration_steps = QualificationOptions{}.integration_steps) {
  std::vector<PnnAnswer> answers;
  const std::vector<const UncertainObject*> objs = FilterByDMinMax(candidates, q);
  if (objs.empty()) return answers;
  if (objs.size() == 1) {
    answers.push_back({objs[0]->id(), 1.0});
    return answers;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : objs) {
    lo = std::min(lo, o->DistMin(q));
    hi = std::min(hi, o->DistMax(q));
  }
  const int m = std::max(2, integration_steps);
  const size_t c = objs.size();
  std::vector<std::vector<double>> cdf(c, std::vector<double>(m + 1));
  for (size_t i = 0; i < c; ++i) {
    for (int k = 0; k <= m; ++k) {
      const double r = lo + (hi - lo) * static_cast<double>(k) / m;
      cdf[i][static_cast<size_t>(k)] = Cdf(*objs[i], q, r);
    }
  }
  for (size_t i = 0; i < c; ++i) {
    double p = 0.0;
    for (int k = 0; k < m; ++k) {
      const double df =
          cdf[i][static_cast<size_t>(k) + 1] - cdf[i][static_cast<size_t>(k)];
      if (df <= 0.0) continue;
      double survive = 1.0;
      for (size_t j = 0; j < c; ++j) {
        if (j == i) continue;
        const double fj = 0.5 * (cdf[j][static_cast<size_t>(k)] +
                                 cdf[j][static_cast<size_t>(k) + 1]);
        survive *= (1.0 - fj);
        if (survive == 0.0) break;
      }
      p += df * survive;
    }
    if (p > 0.0) answers.push_back({objs[i]->id(), p});
  }
  std::sort(answers.begin(), answers.end(), [](const PnnAnswer& a, const PnnAnswer& b) {
    return a.probability > b.probability || (a.probability == b.probability && a.id < b.id);
  });
  return answers;
}

}  // namespace oracle
}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_TESTS_UNCERTAIN_QUALIFICATION_ORACLE_H_
