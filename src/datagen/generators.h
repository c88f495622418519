// Synthetic dataset generators reproducing the paper's setup (Sec. VI-A):
// uniform objects in a 10k x 10k domain with diameter-40 circular
// uncertainty regions and Gaussian pdfs (sigma = diameter/6, 20 histogram
// bars), plus the Gaussian-cloud skew datasets of Fig. 7(g).
//
// The paper used Theodoridis et al.'s generator from rtreeportal.org;
// this module is an offline substitute that reproduces the parameters the
// paper states for it (Sec. VI-A), not the generator's code.
#ifndef UVD_DATAGEN_GENERATORS_H_
#define UVD_DATAGEN_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace datagen {

/// Common dataset parameters (paper defaults).
struct DatasetOptions {
  size_t count = 30000;        ///< |O|
  double domain_size = 10000;  ///< Square domain side length.
  double diameter = 40;        ///< Uncertainty region diameter.
  uncertain::PdfKind pdf = uncertain::PdfKind::kGaussian;
  int num_bars = uncertain::kDefaultNumBars;
  uint64_t seed = 42;
};

/// The square domain D for the given options.
geom::Box DomainFor(const DatasetOptions& options);

/// Uniformly distributed object centers (the paper's synthetic data).
std::vector<uncertain::UncertainObject> GenerateUniform(const DatasetOptions& options);

/// Centers drawn from an isotropic Gaussian at the domain center with the
/// given sigma, clamped inside the domain — the skew datasets of
/// Fig. 7(g) (sigma = 1500 ... 3500; smaller sigma = more skew).
std::vector<uncertain::UncertainObject> GenerateGaussianCloud(
    const DatasetOptions& options, double sigma);

/// One component of a Gaussian-mixture skew dataset.
struct ClusterSpec {
  geom::Point center;    ///< Cluster mean.
  double sigma = 500.0;  ///< Isotropic standard deviation.
  double weight = 1.0;   ///< Relative share of the objects (any positive scale).
};

/// Mixture-of-Gaussians skew generator: Fig. 7(g)'s single central cloud
/// generalized to multiple clusters with unequal weights, the
/// hot-shard-inducing workloads data-adaptive partitioning targets (e.g. a
/// 10:1 two-cluster spec). Per-cluster counts are assigned
/// deterministically by largest remainder (ties to the earlier cluster)
/// and centers are drawn cluster by cluster from one seeded rng, clamped
/// to the domain; ids are 0..n-1 in draw order.
std::vector<uncertain::UncertainObject> GenerateClusters(
    const DatasetOptions& options, const std::vector<ClusterSpec>& clusters);

/// Helper shared by all generators: wraps centers into uncertain objects
/// with ids 0..n-1 and the configured pdf.
std::vector<uncertain::UncertainObject> ObjectsFromCenters(
    const std::vector<geom::Point>& centers, const DatasetOptions& options);

}  // namespace datagen
}  // namespace uvd

#endif  // UVD_DATAGEN_GENERATORS_H_
