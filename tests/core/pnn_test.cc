// Cross-path PNN tests: the UV-index path and the R-tree baseline must
// produce identical answer sets and probabilities; both must agree with
// Monte Carlo.
#include "core/pnn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "testing/phase_trace.h"
#include "uncertain/monte_carlo.h"

namespace uvd {
namespace core {
namespace {

UVDiagram BuildDiagram(size_t n, uint64_t seed, double diameter = 40) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  opts.diameter = diameter;
  auto objects = datagen::GenerateUniform(opts);
  return UVDiagram::Build(std::move(objects), datagen::DomainFor(opts)).ValueOrDie();
}

TEST(PnnTest, UvIndexAndRtreeBaselineAgree) {
  const UVDiagram d = BuildDiagram(1200, 3);
  Rng rng(5);
  for (int t = 0; t < 30; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto via_uv = d.QueryPnn(q).ValueOrDie();
    const auto via_rtree = d.QueryPnnWithRtree(q).ValueOrDie();
    ASSERT_EQ(via_uv.size(), via_rtree.size()) << "t=" << t;
    for (size_t i = 0; i < via_uv.size(); ++i) {
      EXPECT_EQ(via_uv[i].id, via_rtree[i].id);
      EXPECT_NEAR(via_uv[i].probability, via_rtree[i].probability, 1e-12);
    }
  }
}

TEST(PnnTest, ProbabilitiesSumToOne) {
  const UVDiagram d = BuildDiagram(600, 7, /*diameter=*/80);
  Rng rng(9);
  for (int t = 0; t < 20; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto answers = d.QueryPnn(q).ValueOrDie();
    ASSERT_FALSE(answers.empty());
    double total = 0;
    for (const auto& a : answers) total += a.probability;
    EXPECT_NEAR(total, 1.0, 5e-3) << "t=" << t;
  }
}

TEST(PnnTest, AgreesWithMonteCarloOnDenseSpot) {
  // A dense cluster guarantees several answer objects.
  std::vector<uncertain::UncertainObject> objects;
  Rng gen(11);
  for (int i = 0; i < 12; ++i) {
    objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
        i, {{5000 + gen.Uniform(-60, 60), 5000 + gen.Uniform(-60, 60)}, 40}));
  }
  const geom::Box domain({0, 0}, {10000, 10000});
  const UVDiagram d = UVDiagram::Build(objects, domain).ValueOrDie();
  const geom::Point q{5000, 5000};
  const auto answers = d.QueryPnn(q).ValueOrDie();
  ASSERT_GE(answers.size(), 2u);

  std::vector<const uncertain::UncertainObject*> refs;
  for (const auto& o : objects) refs.push_back(&o);
  Rng rng(13);
  const auto mc = uncertain::MonteCarloQualification(refs, q, 300000, &rng);
  for (const auto& a : answers) {
    double mc_p = 0;
    for (const auto& m : mc) {
      if (m.id == a.id) mc_p = m.probability;
    }
    EXPECT_NEAR(a.probability, mc_p, 0.015) << "object " << a.id;
  }
}

TEST(PnnTest, UvIndexReadsFewerLeafPagesThanRtree) {
  // The headline claim (Fig. 6(b)): point query on the UV-index touches one
  // leaf's short page chain; branch-and-prune touches many R-tree leaves.
  const UVDiagram d = BuildDiagram(4000, 17);
  const auto queries = std::vector<geom::Point>{
      {1234, 5678}, {8000, 2000}, {5000, 5000}, {300, 9700}, {6100, 4400}};
  d.stats().Reset();
  for (const auto& q : queries) ASSERT_TRUE(d.QueryPnn(q).ok());
  const uint64_t uv_reads = d.stats().Get(Ticker::kUvIndexLeafReads);
  d.stats().Reset();
  for (const auto& q : queries) ASSERT_TRUE(d.QueryPnnWithRtree(q).ok());
  const uint64_t rtree_reads = d.stats().Get(Ticker::kRtreeLeafReads);
  EXPECT_LT(uv_reads, rtree_reads);
}

TEST(PnnTest, BreakdownComponentsAccumulate) {
  UVD_SKIP_WITHOUT_TRACING();
  const UVDiagram d = BuildDiagram(800, 19);
  test::PhaseTrace trace;
  Rng rng(21);
  for (int t = 0; t < 10; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    ASSERT_TRUE(d.QueryPnn(q).ok());
    ASSERT_TRUE(d.QueryPnnWithRtree(q).ok());
  }
  auto phases = trace.Totals();
  // Every query runs each Fig. 6(c) component once per path; the UV path
  // times its index phase twice (leaf retrieval, then verification).
  for (const char* phase : {"pnn/retrieval", "pnn/computation", "rtree_pnn/index",
                            "rtree_pnn/retrieval", "rtree_pnn/computation"}) {
    EXPECT_EQ(phases[phase].count, 10u) << phase;
  }
  EXPECT_EQ(phases["pnn/index"].count, 20u);
  EXPECT_GT(phases["pnn/computation"].total_ns, 0u);
  EXPECT_GT(phases["rtree_pnn/index"].total_ns, 0u);
}

TEST(PnnTest, EveryAnswerHasPositiveProbability) {
  const UVDiagram d = BuildDiagram(700, 23, /*diameter=*/60);
  Rng rng(25);
  for (int t = 0; t < 20; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    for (const auto& a : d.QueryPnn(q).ValueOrDie()) {
      EXPECT_GT(a.probability, 0.0);
      EXPECT_LE(a.probability, 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace uvd
