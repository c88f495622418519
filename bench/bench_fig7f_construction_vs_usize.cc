// Fig. 7(f): T_c vs uncertainty-region size (diameter 20..100) for IC and
// ICR. Paper shape: ICR rises sharply with region size (overlapping
// regions make exact r-object generation harder); IC is relatively
// insensitive.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(f): T_c vs uncertainty-region size",
                     "ICR sensitive to region size, IC insensitive");
  std::printf("%10s %12s %12s\n", "diameter", "ICR(s)", "IC(s)");
  for (double diameter : {20.0, 40.0, 60.0, 80.0, 100.0}) {
    datagen::DatasetOptions opts;
    opts.count = bench::ScaledCount(30000);
    opts.diameter = diameter;
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
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts), {},
                          &stats, &ic);
    }
    std::printf("%10.0f %12.2f %12.2f\n", diameter, icr, ic);
  }
  return 0;
}
