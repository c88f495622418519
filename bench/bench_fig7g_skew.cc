// Fig. 7(g): IC construction time vs the variance sigma of the object
// centers (Gaussian clouds, sigma = 1500..3500). Paper shape: T_c is
// higher for more skewed data (smaller sigma): dense areas mean heavily
// overlapping cells and more cr-objects.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(g): T_c vs center variance sigma",
                     "Gaussian-cloud skew, IC construction");
  std::printf("%10s %12s %12s\n", "sigma", "IC T_c(s)", "avg |C_i|");
  for (double sigma : {1500.0, 2000.0, 2500.0, 3000.0, 3500.0}) {
    datagen::DatasetOptions opts;
    opts.count = bench::ScaledCount(30000);
    opts.seed = 42;
    Stats stats;
    double seconds = 0;
    auto d = bench::BuildDiagram(datagen::GenerateGaussianCloud(opts, sigma),
                                 datagen::DomainFor(opts), {}, &stats, &seconds);
    std::printf("%10.0f %12.2f %12.1f\n", sigma, seconds, d.build_stats().avg_cr_objects);
  }
  return 0;
}
