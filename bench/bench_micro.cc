// Micro-benchmarks (google-benchmark) for the primitive operations behind
// the system: UV-edge math, envelope insertion, lens areas, distance CDFs,
// qualification integration, page I/O, R-tree traversals, point location.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "geom/circle_ops.h"
#include "geom/envelope.h"
#include "geom/hyperbola.h"
#include "uncertain/distance_dist.h"
#include "uncertain/qualification.h"

namespace {

using namespace uvd;

void BM_HyperbolaFromObjects(benchmark::State& state) {
  const geom::Circle oi({0, 0}, 10), oj({100, 35}, 15);
  for (auto _ : state) {
    auto h = geom::Hyperbola::FromObjects(oi, oj);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HyperbolaFromObjects);

void BM_OutsideRegionTest(benchmark::State& state) {
  const geom::Circle oi({0, 0}, 10), oj({100, 35}, 15);
  const geom::Point p{80, 20};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oi.DistMin(p) > oj.DistMax(p));
  }
}
BENCHMARK(BM_OutsideRegionTest);

void BM_EnvelopeInsert(benchmark::State& state) {
  const int num_constraints = static_cast<int>(state.range(0));
  Rng rng(7);
  const geom::Box domain({0, 0}, {10000, 10000});
  const geom::Circle anchor({5000, 5000}, 20);
  std::vector<geom::RadialConstraint> constraints;
  for (int j = 0; j < num_constraints; ++j) {
    constraints.push_back(geom::RadialConstraint::ForObjects(
        anchor,
        geom::Circle({rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 20), j));
  }
  for (auto _ : state) {
    geom::RadialEnvelope env(anchor.center, domain);
    for (const auto& c : constraints) env.Insert(c);
    benchmark::DoNotOptimize(env.arcs().size());
  }
}
BENCHMARK(BM_EnvelopeInsert)->Arg(8)->Arg(64)->Arg(512);

void BM_LensArea(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::LensArea(1.3, 1.0, 1.6));
  }
}
BENCHMARK(BM_LensArea);

// Sweeps d across the support in 400 steps. Arg 0: query outside the
// region; arg 1: query inside it, 10 from the center, so the inner rings
// are fully covered and the partial rings reach the boundary.
void BM_DistanceCdf(benchmark::State& state) {
  const auto obj = uncertain::UncertainObject::WithGaussianPdf(0, {{100, 0}, 20});
  const geom::Point q = state.range(0) == 0 ? geom::Point{0, 0} : geom::Point{90, 0};
  const uncertain::DistanceDistribution dist(obj, q);
  const double step = (dist.upper() - dist.lower()) / 400;
  double d = dist.lower();
  for (auto _ : state) {
    d = d + step > dist.upper() ? dist.lower() : d + step;
    benchmark::DoNotOptimize(dist.Cdf(d));
  }
}
BENCHMARK(BM_DistanceCdf)->ArgName("inside")->Arg(0)->Arg(1);

void BM_Qualification(benchmark::State& state) {
  const int candidates = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<uncertain::UncertainObject> objs;
  for (int i = 0; i < candidates; ++i) {
    objs.push_back(uncertain::UncertainObject::WithGaussianPdf(
        i, {{rng.Uniform(-80, 80), rng.Uniform(-80, 80)}, 40}));
  }
  std::vector<const uncertain::UncertainObject*> refs;
  for (const auto& o : objs) refs.push_back(&o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uncertain::ComputeQualificationProbabilities(refs, {0, 0}));
  }
}
// Arg(5) is the operating point of the end-to-end PNN workloads, which
// average about 4.6 answer objects per query.
BENCHMARK(BM_Qualification)->Arg(2)->Arg(5)->Arg(8)->Arg(32);

void BM_PageReadWrite(benchmark::State& state) {
  storage::PageManager pm(4096);
  const storage::PageId p = pm.Allocate().ValueOrDie();
  std::vector<uint8_t> data(4096, 0xAB);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.Write(p, data));
    benchmark::DoNotOptimize(pm.Read(p, &out));
  }
}
BENCHMARK(BM_PageReadWrite);

struct IndexedFixture {
  Stats stats;
  std::unique_ptr<core::UVDiagram> diagram;
  std::vector<geom::Point> queries;

  static IndexedFixture& Get() {
    static IndexedFixture f = [] {
      IndexedFixture fx;
      datagen::DatasetOptions opts;
      opts.count = 10000;
      opts.seed = 42;
      fx.diagram = std::make_unique<core::UVDiagram>(
          core::UVDiagram::Build(datagen::GenerateUniform(opts),
                                 datagen::DomainFor(opts), {}, &fx.stats)
              .ValueOrDie());
      fx.queries = datagen::UniformQueryPoints(256, fx.diagram->domain(), 7);
      return fx;
    }();
    return f;
  }
};

void BM_RtreeKnn(benchmark::State& state) {
  auto& f = IndexedFixture::Get();
  const rtree::RTree& tree = *f.diagram->rtree().ValueOrDie();
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = f.queries[i++ % f.queries.size()];
    benchmark::DoNotOptimize(tree.KNearestByDistMin(q, 300));
  }
}
BENCHMARK(BM_RtreeKnn);

void BM_UvIndexPointLocation(benchmark::State& state) {
  auto& f = IndexedFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = f.queries[i++ % f.queries.size()];
    benchmark::DoNotOptimize(f.diagram->index().LocateLeaf(q));
  }
}
BENCHMARK(BM_UvIndexPointLocation);

void BM_UvIndexFullPnn(benchmark::State& state) {
  auto& f = IndexedFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = f.queries[i++ % f.queries.size()];
    benchmark::DoNotOptimize(f.diagram->QueryPnn(q).ValueOrDie());
  }
}
BENCHMARK(BM_UvIndexFullPnn);

void BM_RtreeFullPnn(benchmark::State& state) {
  auto& f = IndexedFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = f.queries[i++ % f.queries.size()];
    benchmark::DoNotOptimize(f.diagram->QueryPnnWithRtree(q).ValueOrDie());
  }
}
BENCHMARK(BM_RtreeFullPnn);

}  // namespace

BENCHMARK_MAIN();
