// Table II: real datasets (Germany utility / roads / rrlines; here the
// real-like substitutes of datagen/real_like.h at the paper cardinalities,
// scaled). Reports T_q for both indexes, construction time T_c and the
// pruning ratio p_c. Paper shape: UVD consistently beats the R-tree;
// p_c = 86-89%.
#include "bench_common.h"

#include "datagen/real_like.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Table II: real-like datasets",
                     "utility(17K) / roads(30K) / rrlines(36K), scaled");
  std::printf("%10s %8s %14s %14s %10s %8s\n", "dataset", "|O|", "Tq(UVD)(ms)",
              "Tq(R-tree)(ms)", "Tc(s)", "pc(%)");
  for (datagen::RealDataset which :
       {datagen::RealDataset::kUtility, datagen::RealDataset::kRoads,
        datagen::RealDataset::kRrlines}) {
    datagen::DatasetOptions opts;
    opts.count = bench::ScaledCount(datagen::RealDatasetDefaultCount(which));
    opts.seed = 42;
    Stats stats;
    double build_seconds = 0;
    auto diagram = bench::BuildDiagram(datagen::GenerateRealLike(which, opts),
                                       datagen::DomainFor(opts), {}, &stats, &build_seconds);
    const auto queries =
        datagen::UniformQueryPoints(bench::kNumQueries, diagram.domain(), 7);
    const auto r = bench::MeasurePnn(diagram, queries);
    std::printf("%10s %8zu %14.3f %14.3f %10.2f %8.1f\n",
                datagen::RealDatasetName(which), opts.count, r.uv_ms, r.rtree_ms,
                build_seconds,
                100.0 * diagram.build_stats().c_pruning_ratio);
  }
  return 0;
}
