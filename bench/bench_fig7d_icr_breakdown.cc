// Fig. 7(d): ICR construction time decomposition: I+C pruning, r-object
// generation (exact cell refinement), indexing. Paper shape: r-object
// generation dominates for most sizes.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(d): components of ICR's T_c (%)",
                     "pruning / r-object generation / indexing");
  std::printf("%10s %14s %16s %12s\n", "|O|", "I+C prune(%)", "gen r-object(%)",
              "indexing(%)");
  for (size_t n : bench::SizeSweep()) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = 42;
    Stats stats;
    core::UVDiagramOptions options;
    options.method = core::BuildMethod::kICR;
    auto phases = bench::TracePhases([&] {
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts),
                          options, &stats);
    });
    // Step-1 seed time belongs to Algorithm 2, so it is charged to the
    // pruning component (cr/seed and cr/prune are disjoint spans).
    const double prune = phases["cr/seed"].seconds() + phases["cr/prune"].seconds();
    const double robject = phases["build/robject"].seconds();
    const double indexing = phases["build/stage2"].seconds();
    const double total = prune + robject + indexing;
    std::printf("%10zu %14.1f %16.1f %12.1f\n", n, 100.0 * prune / total,
                100.0 * robject / total, 100.0 * indexing / total);
  }
  return 0;
}
