// Fig. 7(c): construction time of IC vs ICR across |O|. Paper shape: IC
// far cheaper (about 10% of ICR at 70K) because it skips exact r-object
// generation.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(c): T_c of IC vs ICR", "r-object refinement cost");
  std::printf("%10s %12s %12s %12s\n", "|O|", "ICR(s)", "IC(s)", "IC/ICR(%)");
  for (size_t n : bench::SizeSweep()) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = 42;
    double icr = 0, ic = 0;
    {
      Stats stats;
      core::UVDiagramOptions options;
      options.method = core::BuildMethod::kICR;
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts),
                          options, &stats, &icr);
    }
    {
      Stats stats;
      core::UVDiagramOptions options;
      options.method = core::BuildMethod::kIC;
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts),
                          options, &stats, &ic);
    }
    std::printf("%10zu %12.2f %12.2f %12.1f\n", n, icr, ic, 100.0 * ic / icr);
  }
  return 0;
}
