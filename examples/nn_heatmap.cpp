// Nearest-neighbor pattern analysis (paper Sec. V-C and the virus-spread
// motivation [8]): visualize how many objects can be the nearest neighbor
// across the space. Regions where many devices are plausible nearest
// neighbors are where a proximity-spreading process (e.g. a bluetooth
// virus) has the most routes.
//
// Builds a UV-diagram over a clustered device population, runs UV-partition
// queries over a sweep grid, and writes a PGM heat map plus a CSV table.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/uv_diagram.h"
#include "datagen/generators.h"

int main() {
  using namespace uvd;

  datagen::DatasetOptions opts;
  opts.count = 4000;
  opts.domain_size = 10000;
  opts.diameter = 120;  // bluetooth-ish reach
  opts.seed = 11;
  auto devices = datagen::GenerateGaussianCloud(opts, /*sigma=*/1800);
  const geom::Box domain = datagen::DomainFor(opts);
  auto diagram = core::UVDiagram::Build(std::move(devices), domain).ValueOrDie();

  // Sample NN-candidate density on a grid via UV-partition queries.
  const int kCells = 64;
  const double cell = opts.domain_size / kCells;
  std::vector<double> density(static_cast<size_t>(kCells) * kCells, 0.0);
  double max_density = 0.0;
  for (int gy = 0; gy < kCells; ++gy) {
    for (int gx = 0; gx < kCells; ++gx) {
      const geom::Box range({gx * cell, gy * cell}, {(gx + 1) * cell, (gy + 1) * cell});
      double acc = 0.0;
      for (const auto& p : diagram.QueryUvPartitions(range)) {
        // Weight each partition by its overlap with the grid cell.
        const geom::Box inter({std::max(p.region.lo.x, range.lo.x),
                               std::max(p.region.lo.y, range.lo.y)},
                              {std::min(p.region.hi.x, range.hi.x),
                               std::min(p.region.hi.y, range.hi.y)});
        if (!inter.IsEmpty()) acc += p.density * inter.Area();
      }
      acc /= range.Area();
      density[static_cast<size_t>(gy) * kCells + gx] = acc;
      max_density = std::max(max_density, acc);
    }
  }

  // PGM heat map (bright = many possible nearest neighbors).
  const char* pgm_path = "nn_heatmap.pgm";
  if (FILE* f = std::fopen(pgm_path, "w")) {
    std::fprintf(f, "P2\n%d %d\n255\n", kCells, kCells);
    for (int gy = kCells - 1; gy >= 0; --gy) {  // north up
      for (int gx = 0; gx < kCells; ++gx) {
        const double v = density[static_cast<size_t>(gy) * kCells + gx];
        std::fprintf(f, "%d ", static_cast<int>(255.0 * v / max_density));
      }
      std::fprintf(f, "\n");
    }
    std::fclose(f);
  }

  // CSV of the densest partitions inside the hot zone.
  const char* csv_path = "nn_hotspots.csv";
  const geom::Box hot({3500, 3500}, {6500, 6500});
  auto partitions = diagram.QueryUvPartitions(hot);
  std::sort(partitions.begin(), partitions.end(),
            [](const core::UvPartition& a, const core::UvPartition& b) {
              return a.density > b.density;
            });
  if (FILE* f = std::fopen(csv_path, "w")) {
    std::fprintf(f, "lo_x,lo_y,hi_x,hi_y,objects,density\n");
    for (size_t i = 0; i < std::min<size_t>(partitions.size(), 50); ++i) {
      const auto& p = partitions[i];
      std::fprintf(f, "%.0f,%.0f,%.0f,%.0f,%zu,%.8f\n", p.region.lo.x, p.region.lo.y,
                   p.region.hi.x, p.region.hi.y, p.object_count, p.density);
    }
    std::fclose(f);
  }

  std::printf("device population: 4000 (Gaussian cloud, sigma=1800)\n");
  std::printf("UV-index: %zu leaves over %d non-leaf nodes\n",
              diagram.index().num_leaves(), diagram.index().num_nonleaf());
  std::printf("peak NN-candidate density: %.3g objects per unit^2\n", max_density);
  std::printf("wrote %s (64x64 heat map) and %s (top partitions)\n", pgm_path,
              csv_path);
  std::printf("\ninterpretation: bright cells are where a proximity-based process\n"
              "(virus hop, service handoff) has the most possible next targets.\n");
  return 0;
}
