// Satellite-image object tracking (the paper's opening motivation):
// vehicle positions extracted from noisy satellite imagery carry
// per-detection uncertainty. Dispatchers repeatedly ask "which vehicles
// could be closest to this incident?" — a PNN query per incident.
//
// This example builds a UV-diagram over a synthetic vehicle fleet, runs a
// stream of incident queries through both the UV-index and the R-tree
// baseline, and reports answer quality and I/O.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/uv_diagram.h"
#include "datagen/workload.h"

int main() {
  using namespace uvd;

  // 25 km x 25 km theatre, 5000 vehicles. Measurement error grows with
  // image obliqueness: uncertainty radii between 30 and 120 m.
  const double kSide = 25000.0;
  const geom::Box domain({0, 0}, {kSide, kSide});
  Rng rng(2026);
  std::vector<uncertain::UncertainObject> fleet;
  for (int i = 0; i < 5000; ++i) {
    const geom::Point pos{rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
    const double radius = rng.Uniform(30, 120);
    fleet.push_back(uncertain::UncertainObject::WithGaussianPdf(i, {pos, radius}));
  }

  Timer build_timer;
  auto diagram = core::UVDiagram::Build(std::move(fleet), domain).ValueOrDie();
  std::printf("indexed 5000 vehicles in %.2f s (IC construction)\n",
              build_timer.ElapsedSeconds());

  // 200 incident sites; measure both query paths.
  const auto incidents = datagen::UniformQueryPoints(200, domain, 7);
  size_t answers_total = 0;

  diagram.stats().Reset();
  Timer uv_timer;
  for (const auto& q : incidents) {
    answers_total += diagram.QueryPnn(q).ValueOrDie().size();
  }
  const double uv_ms = uv_timer.ElapsedMillis() / incidents.size();
  const uint64_t uv_io = diagram.stats().Get(Ticker::kUvIndexLeafReads);

  diagram.stats().Reset();
  Timer rt_timer;
  for (const auto& q : incidents) {
    UVD_CHECK(diagram.QueryPnnWithRtree(q).ok());
  }
  const double rt_ms = rt_timer.ElapsedMillis() / incidents.size();
  const uint64_t rt_io = diagram.stats().Get(Ticker::kRtreeLeafReads);

  std::printf("\nper-incident PNN latency and index I/O (200 incidents):\n");
  std::printf("  UV-index : %7.3f ms   %.2f leaf reads/query\n", uv_ms,
              static_cast<double>(uv_io) / incidents.size());
  std::printf("  R-tree   : %7.3f ms   %.2f leaf reads/query\n", rt_ms,
              static_cast<double>(rt_io) / incidents.size());
  std::printf("  avg candidate vehicles per incident: %.2f\n",
              static_cast<double>(answers_total) / incidents.size());

  // A concrete incident: rank the possible closest vehicles.
  const geom::Point incident{kSide / 2, kSide / 2};
  std::printf("\nincident at (%.0f, %.0f) — possible nearest vehicles:\n",
              incident.x, incident.y);
  auto answers = diagram.QueryPnn(incident).ValueOrDie();
  for (size_t i = 0; i < std::min<size_t>(answers.size(), 5); ++i) {
    std::printf("  vehicle %-5d  P(closest) = %.4f\n", answers[i].id,
                answers[i].probability);
  }
  return 0;
}
