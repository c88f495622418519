#include "uncertain/qualification.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "uncertain/distance_dist.h"

namespace uvd {
namespace uncertain {

std::vector<const UncertainObject*> FilterByDMinMax(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : candidates) {
    d_minmax = std::min(d_minmax, o->DistMax(q));
  }
  std::vector<const UncertainObject*> out;
  out.reserve(candidates.size());
  for (const UncertainObject* o : candidates) {
    if (o->DistMin(q) <= d_minmax) out.push_back(o);
  }
  return out;
}

std::vector<double> DistanceCdfTable(const std::vector<const UncertainObject*>& objs,
                                     const geom::Point& q, int m) {
  // Integration domain: from the smallest possible NN distance to d_minmax
  // (beyond which some candidate is certainly closer).
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : objs) {
    lo = std::min(lo, o->DistMin(q));
    hi = std::min(hi, o->DistMax(q));
  }
  UVD_DCHECK_LE(lo, hi);
  const size_t row = static_cast<size_t>(m) + 1;
  std::vector<double> cdf(objs.size() * row);
  for (size_t i = 0; i < objs.size(); ++i) {
    const DistanceDistribution dist(*objs[i], q);
    for (size_t k = 0; k < row; ++k) {
      const double r = lo + (hi - lo) * static_cast<double>(k) / m;
      cdf[i * row + k] = dist.Cdf(r);
    }
  }
  return cdf;
}

std::vector<PnnAnswer> ComputeQualificationProbabilities(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    const QualificationOptions& options, Stats* stats) {
  std::vector<PnnAnswer> answers;
  const std::vector<const UncertainObject*> objs = FilterByDMinMax(candidates, q);
  if (objs.empty()) return answers;
  if (stats != nullptr) stats->Add(Ticker::kQualificationIntegrations);
  if (objs.size() == 1) {
    answers.push_back({objs[0]->id(), 1.0});
    return answers;
  }

  const int m = std::max(2, options.integration_steps);
  const size_t c = objs.size();
  const size_t row = static_cast<size_t>(m) + 1;
  const std::vector<double> cdf = DistanceCdfTable(objs, q, m);

  // P_i = sum over grid cells of dF_i * prod_{j != i} (1 - F_j(midpoint)).
  answers.reserve(c);
  for (size_t i = 0; i < c; ++i) {
    const double* fi = &cdf[i * row];
    double p = 0.0;
    for (size_t k = 0; k + 1 < row; ++k) {
      const double df = fi[k + 1] - fi[k];
      if (df <= 0.0) continue;
      double survive = 1.0;
      for (size_t j = 0; j < c; ++j) {
        if (j == i) continue;
        const double* fj = &cdf[j * row];
        const double mid = 0.5 * (fj[k] + fj[k + 1]);
        survive *= (1.0 - mid);
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

}  // namespace uncertain
}  // namespace uvd
