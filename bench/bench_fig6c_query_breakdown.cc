// Fig. 6(c): decomposition of T_q into index traversal, object (pdf)
// retrieval and qualification-probability calculation, for both indexes at
// the default dataset size. Paper shape: retrieval and QP calculation are
// similar for both; the R-tree pays much more index time.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 6(c): components of T_q",
                     "index / object retrieval / QP calculation, |O|=30K scaled");
  datagen::DatasetOptions opts;
  opts.count = bench::ScaledCount(30000);
  opts.seed = 42;
  Stats stats;
  auto diagram = bench::BuildDiagram(datagen::GenerateUniform(opts),
                                     datagen::DomainFor(opts), {}, &stats);
  const auto queries =
      datagen::UniformQueryPoints(bench::kNumQueries, diagram.domain(), 7);
  const auto r = bench::MeasurePnn(diagram, queries);
  const double n = bench::kNumQueries;

  std::printf("%12s %12s %16s %16s %12s\n", "index", "Index(ms)", "ObjRetrieval(ms)",
              "QPCalc(ms)", "Total(ms)");
  auto row = [&](const char* name, const bench::PnnPhases& b) {
    std::printf("%12s %12.3f %16.3f %16.3f %12.3f\n", name, b.index_s * 1e3 / n,
                b.retrieval_s * 1e3 / n, b.computation_s * 1e3 / n, b.Total() * 1e3 / n);
  };
  row("UV-diagram", r.uv_phases);
  row("R-tree", r.rtree_phases);
  std::printf("\n(|O| = %zu, %d queries)\n", opts.count, bench::kNumQueries);
  return 0;
}
