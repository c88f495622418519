// "Real-like" geographic datasets substituting the paper's Germany maps
// (utility 17K, roads 30K, rrlines 36K from rtreeportal.org, paper
// Sec. VI-A), which are not distributed with this code. The experiments
// exercise only the non-uniformity of the real data, so we synthesize sets
// with the same cardinalities and matching spatial character:
//   utility — clustered point process (facility clusters around towns)
//   roads   — dense jittered points along many meandering polylines
//   rrlines — sparse points along fewer, longer, straighter polylines
#ifndef UVD_DATAGEN_REAL_LIKE_H_
#define UVD_DATAGEN_REAL_LIKE_H_

#include "datagen/generators.h"

namespace uvd {
namespace datagen {

enum class RealDataset {
  kUtility,
  kRoads,
  kRrlines,
};

const char* RealDatasetName(RealDataset d);

/// Paper cardinality of the dataset (17K / 30K / 36K).
size_t RealDatasetDefaultCount(RealDataset d);

/// Generates the dataset. options.count == 0 selects the paper
/// cardinality; other fields (domain, diameter, pdf, seed) apply as usual.
std::vector<uncertain::UncertainObject> GenerateRealLike(RealDataset which,
                                                         DatasetOptions options);

}  // namespace datagen
}  // namespace uvd

#endif  // UVD_DATAGEN_REAL_LIKE_H_
