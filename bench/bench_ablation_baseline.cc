// Ablation: R-tree PNN traversal variants. The paper characterizes the
// [14] baseline as paying "multiple traversals" (our kTwoPhase). Modern
// single-pass variants cut its I/O — this bench quantifies how much of the
// UV-index's advantage depends on the baseline's traversal discipline.
#include "bench_common.h"

#include "common/timer.h"
#include "rtree/pnn_baseline.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Ablation: R-tree baseline traversal",
                     "two-phase [14] vs best-first vs node-tightened best-first");
  datagen::DatasetOptions opts;
  opts.count = bench::ScaledCount(40000);
  opts.seed = 42;
  Stats stats;
  auto diagram = bench::BuildDiagram(datagen::GenerateUniform(opts),
                                     datagen::DomainFor(opts), {}, &stats);
  const auto queries =
      datagen::UniformQueryPoints(bench::kNumQueries * 4, diagram.domain(), 7);

  std::printf("%24s %12s %12s\n", "traversal", "leaf I/O", "T_index(ms)");
  const std::pair<const char*, rtree::BaselineTraversal> variants[] = {
      {"two-phase [14]", rtree::BaselineTraversal::kTwoPhase},
      {"best-first", rtree::BaselineTraversal::kBestFirst},
      {"best-first+maxdist", rtree::BaselineTraversal::kBestFirstNodeTightened},
  };
  const rtree::RTree& tree = *diagram.rtree().ValueOrDie();
  for (const auto& [name, traversal] : variants) {
    stats.Reset();
    Timer t;
    for (const auto& q : queries) {
      rtree::PnnBaselineOptions options;
      options.traversal = traversal;
      UVD_CHECK(rtree::RetrievePnnCandidates(tree, q, &stats, options).ok());
    }
    std::printf("%24s %12.2f %12.4f\n", name,
                static_cast<double>(stats.Get(Ticker::kRtreeLeafReads)) /
                    queries.size(),
                t.ElapsedMillis() / queries.size());
  }

  // UV-index reference line.
  stats.Reset();
  Timer t;
  for (const auto& q : queries) {
    auto r = diagram.index().RetrieveCandidates(q);
    (void)r;
  }
  std::printf("%24s %12.2f %12.4f\n", "UV-index (reference)",
              static_cast<double>(stats.Get(Ticker::kUvIndexLeafReads)) /
                  queries.size(),
              t.ElapsedMillis() / queries.size());
  return 0;
}
