// Ablation: the adaptive seed-widening refinement
// (CrFinderOptions::adaptive_seed_widening, an addition to the paper's
// Algorithm 2 documented in core/cr_finder.h). Plain
// Sec. IV-B seed regions under-constrain a heavy tail of objects on dense
// data (near seeds have angularly narrow UV-edges), inflating |C_i| and
// construction time; widening with the already-fetched k-NN pool removes
// the tail at negligible cost.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Ablation: adaptive seed widening",
                     "plain Sec. IV-B seeds vs k-NN-pool widening (IC build)");
  std::printf("%10s %12s %14s %12s %14s\n", "|O|", "variant", "T_c(s)",
              "avg |C_i|", "pc(C)(%)");
  for (size_t n : {bench::ScaledCount(20000), bench::ScaledCount(60000)}) {
    for (bool widening : {false, true}) {
      datagen::DatasetOptions opts;
      opts.count = n;
      opts.seed = 42;
      Stats stats;
      core::UVDiagramOptions options;
      options.cr.adaptive_seed_widening = widening;
      double seconds = 0;
      auto d = bench::BuildDiagram(datagen::GenerateUniform(opts),
                                   datagen::DomainFor(opts), options, &stats, &seconds);
      std::printf("%10zu %12s %14.2f %12.1f %14.2f\n", n,
                  widening ? "widened" : "plain", seconds,
                  d.build_stats().avg_cr_objects,
                  100.0 * d.build_stats().c_pruning_ratio);
    }
  }
  return 0;
}
