#include "uncertain/threshold.h"

#include <algorithm>

namespace uvd {
namespace uncertain {

std::vector<ThresholdAnswer> QualificationBounds(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    int verifier_steps) {
  std::vector<ThresholdAnswer> out;
  const auto objs = FilterByDMinMax(candidates, q);
  if (objs.empty()) return out;
  if (objs.size() == 1) {
    out.push_back({objs[0]->id(), 1.0, 1.0, false, 1.0});
    return out;
  }

  const int m = std::max(2, verifier_steps);
  const size_t c = objs.size();
  const size_t row = static_cast<size_t>(m) + 1;
  const std::vector<double> cdf = DistanceCdfTable(objs, q, m);

  // P_i = sum_k Integral_{cell k} prod_{j != i} (1 - F_j(r)) dF_i(r).
  // All F_j are non-decreasing, so over cell k the survival product is
  // bracketed by its values at the two grid points: evaluating it at the
  // right (left) end under-(over-)estimates every cell contribution.
  out.reserve(c);
  for (size_t i = 0; i < c; ++i) {
    const double* fi = &cdf[i * row];
    double lower = 0.0, upper = 0.0;
    for (size_t k = 0; k + 1 < row; ++k) {
      const double df = fi[k + 1] - fi[k];
      if (df <= 0.0) continue;
      double s_left = 1.0, s_right = 1.0;
      for (size_t j = 0; j < c; ++j) {
        if (j == i) continue;
        const double* fj = &cdf[j * row];
        s_left *= (1.0 - fj[k]);
        s_right *= (1.0 - fj[k + 1]);
      }
      lower += df * s_right;
      upper += df * s_left;
    }
    ThresholdAnswer a;
    a.id = objs[i]->id();
    a.lower = std::clamp(lower, 0.0, 1.0);
    a.upper = std::clamp(upper, 0.0, 1.0);
    a.probability = 0.5 * (a.lower + a.upper);
    out.push_back(a);
  }
  return out;
}

std::vector<ThresholdAnswer> ThresholdQualification(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    const ThresholdOptions& options, ThresholdStats* tstats, Stats* stats) {
  ThresholdStats local;
  auto bounds = QualificationBounds(candidates, q, options.verifier_steps);
  local.candidates = bounds.size();

  // Undecided candidates pay one joint full integration.
  std::vector<ThresholdAnswer> result;
  bool needs_refine = false;
  for (const ThresholdAnswer& a : bounds) {
    if (a.lower >= options.threshold) {
      ++local.accepted_by_bounds;
    } else if (a.upper < options.threshold) {
      ++local.rejected_by_bounds;
    } else {
      needs_refine = true;
    }
  }

  std::vector<PnnAnswer> exact;
  if (needs_refine) {
    exact = ComputeQualificationProbabilities(candidates, q, options.refine, stats);
  }
  auto exact_of = [&](int id) -> const PnnAnswer* {
    for (const PnnAnswer& e : exact) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };

  for (ThresholdAnswer a : bounds) {
    if (a.lower >= options.threshold) {
      result.push_back(a);
      continue;
    }
    if (a.upper < options.threshold) continue;  // certified below threshold
    ++local.refined;
    a.refined = true;
    const PnnAnswer* e = exact_of(a.id);
    a.probability = e != nullptr ? e->probability : 0.0;
    if (a.probability >= options.threshold) result.push_back(a);
  }

  std::sort(result.begin(), result.end(),
            [](const ThresholdAnswer& x, const ThresholdAnswer& y) {
              return x.probability > y.probability ||
                     (x.probability == y.probability && x.id < y.id);
            });
  if (tstats != nullptr) *tstats = local;
  return result;
}

}  // namespace uncertain
}  // namespace uvd
