// Fig. 7(e): IC construction time decomposition: I+C pruning vs indexing
// (no r-object generation at all). Paper shape: pruning dominates.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(e): components of IC's T_c (%)",
                     "pruning / indexing (IC never generates r-objects)");
  std::printf("%10s %14s %12s\n", "|O|", "I+C prune(%)", "indexing(%)");
  for (size_t n : bench::SizeSweep()) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = 42;
    Stats stats;
    auto phases = bench::TracePhases([&] {
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts), {},
                          &stats);
    });
    // Step-1 seed time belongs to Algorithm 2, so it is charged to the
    // pruning component (cr/seed and cr/prune are disjoint spans).
    const double prune = phases["cr/seed"].seconds() + phases["cr/prune"].seconds();
    const double indexing = phases["build/stage2"].seconds();
    const double total = prune + indexing;
    std::printf("%10zu %14.1f %12.1f\n", n, 100.0 * prune / total,
                100.0 * indexing / total);
  }
  return 0;
}
