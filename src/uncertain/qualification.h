// Qualification-probability computation for PNN queries via numerical
// integration, following [14] (Cheng, Kalashnikov, Prabhakar, TKDE'04) as
// the paper's Sec. VI-A prescribes:
//
//   P_i = Integral f_i(r) * Prod_{j != i} (1 - F_j(r)) dr
//
// over r in [dist_min(O_i, q), d_minmax], where F_j is the distance CDF of
// candidate j and d_minmax = min_j dist_max(O_j, q) is the verification
// bound of [14]: objects with dist_min > d_minmax can never be the NN.
#ifndef UVD_UNCERTAIN_QUALIFICATION_H_
#define UVD_UNCERTAIN_QUALIFICATION_H_

#include <vector>

#include "common/stats.h"
#include "geom/point.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {

/// One PNN answer object with its qualification probability.
struct PnnAnswer {
  int id = -1;
  double probability = 0.0;
};

/// Options for the numerical integration.
struct QualificationOptions {
  int integration_steps = 240;  ///< Grid resolution over [lo, d_minmax].
};

/// Applies the d_minmax verification filter of [14]: keeps exactly the
/// candidates with dist_min(O, q) <= min_j dist_max(O_j, q). The survivors
/// are the answer objects (all have non-zero probability).
std::vector<const UncertainObject*> FilterByDMinMax(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q);

/// The distance-CDF table both qualification integrals (this file's and
/// QualificationBounds in threshold.h) run on: F_i(r_k) for each of the
/// d_minmax-filtered objects `objs` (non-empty) at the m + 1 radii
/// r_k = lo + (hi - lo) * k / m, k = 0..m, spanning [lo, hi] =
/// [min_i dist_min(O_i, q), d_minmax]. Flat, row i holding objs[i]:
/// entry (i, k) is at i * (m + 1) + k.
std::vector<double> DistanceCdfTable(const std::vector<const UncertainObject*>& objs,
                                     const geom::Point& q, int m);

/// Computes qualification probabilities for the given candidate set.
/// `candidates` must contain every object with dist_min <= d_minmax for the
/// probabilities to sum to 1 (the filter is applied internally as well).
/// Answers are sorted by descending probability; all probabilities > 0.
std::vector<PnnAnswer> ComputeQualificationProbabilities(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    const QualificationOptions& options = {}, Stats* stats = nullptr);

}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_UNCERTAIN_QUALIFICATION_H_
