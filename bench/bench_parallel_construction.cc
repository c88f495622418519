// Staged build pipeline: construction time vs worker count, stage-1
// kernel implementation and stage-1 traversal strategy for Basic / ICR /
// IC on the Fig. 7(a) workload (uniform and clustered shapes).
//
// Three axes:
//
//   threads        — stage 1 fans out per object; stage 2 (quad-tree
//                    insertion) runs domain-partitioned with a canonical
//                    stitch (core/uv_index.h).
//   kernel         — scalar: the reference per-candidate loops;
//                    batch: the SoA kernels of geom/batch/ (envelope
//                    prefilter, squared-distance C-pruning, batched
//                    4-point test), optionally SIMD (UVD_ENABLE_SIMD).
//   traversal      — per_anchor: every anchor restarts the R-tree k-NN /
//                    range query from the root (the traversal oracle);
//                    shared: Morton-tiled anchors reuse a per-worker
//                    rtree::TraversalSession (entry pool,
//                    previous-anchor bound, decoded-leaf memo).
//
// The kernel switches are CrFinderOptions::kernel_mode (stage 1) and
// UVIndexOptions::kernel_mode (stage 2); the traversal switch is
// CrFinderOptions::traversal_mode. Every cell builds a byte-identical
// index; `--determinism-check` proves it by building the example index
// across thread counts, frontier depths, kernels AND traversals, diffing
// serialized digests
// against the serial build (the CI cross-check step and a ctest smoke run
// exactly that; exits non-zero on any mismatch).
//
// Every timing column is a trace-span total (docs/OBSERVABILITY.md), read
// with library tracing on; total_s times UVDiagram::Build itself.
// `--json <path>` additionally writes every measured cell as a flat JSON
// record (method, shape, threads, kernel, traversal, stage wall clocks,
// the stage-2 wall split member/prefix/route/subtree/stitch/finalize, the
// stage-1 phase breakdown descent/decode/kernel as wall seconds summed
// over workers) for bench history tracking — see BENCH_stage1.json
// at the repo root.
#include "bench_common.h"

#include <cstring>

#include "common/thread_pool.h"

namespace {

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<uint8_t> SerializedIndex(const uvd::core::UVDiagram& d) {
  std::vector<uint8_t> bytes;
  UVD_CHECK_OK(d.index().SerializeStructure(&bytes));
  return bytes;
}

/// Builds the example dataset at every (threads, depth, kernel,
/// traversal) combination and compares serialized digests against
/// the serial build. Returns the number of mismatches (0 = deterministic).
int RunDeterminismCheck() {
  using namespace uvd;
  datagen::DatasetOptions opts;
  opts.count = 800;
  opts.seed = 42;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);

  core::UVDiagramOptions serial_options;
  serial_options.build_threads = 1;
  serial_options.cr.kernel_mode = geom::KernelMode::kScalar;
  serial_options.index.kernel_mode = geom::KernelMode::kScalar;
  serial_options.cr.traversal_mode = rtree::TraversalMode::kPerAnchor;
  const auto serial =
      core::UVDiagram::Build(objects, domain, serial_options).ValueOrDie();
  const uint64_t serial_digest = Fnv1a(SerializedIndex(serial));
  std::printf("serial scalar per_anchor                  digest %016llx\n",
              static_cast<unsigned long long>(serial_digest));

  int mismatches = 0;
  const auto check = [&](int threads, int depth, geom::KernelMode kernel,
                         rtree::TraversalMode traversal) {
    core::UVDiagramOptions options;
    options.build_threads = threads;
    options.stage2_max_depth = depth;
    options.cr.kernel_mode = kernel;
    options.index.kernel_mode = kernel;
    options.cr.traversal_mode = traversal;
    const auto d = core::UVDiagram::Build(objects, domain, options).ValueOrDie();
    const uint64_t digest = Fnv1a(SerializedIndex(d));
    const bool ok = digest == serial_digest;
    std::printf(
        "threads=%d depth=%d kernel=%-6s traversal=%-10s "
        "digest %016llx  %s\n",
        threads, depth, geom::KernelModeName(kernel),
        rtree::TraversalModeName(traversal),
        static_cast<unsigned long long>(digest), ok ? "OK" : "MISMATCH");
    if (!ok) ++mismatches;
  };
  for (int threads : {2, 4, 8}) {
    for (geom::KernelMode kernel :
         {geom::KernelMode::kScalar, geom::KernelMode::kBatch}) {
      check(threads, 2, kernel, rtree::TraversalMode::kShared);
    }
    for (int depth : {1, 3}) {
      check(threads, depth, geom::KernelMode::kBatch, rtree::TraversalMode::kShared);
    }
  }
  // Traversal axis: per-anchor and shared on 1 and 8 workers (800 anchors
  // leave a ragged last Morton tile of 800 % 64 = 32).
  for (int threads : {1, 8}) {
    check(threads, 2, geom::KernelMode::kBatch, rtree::TraversalMode::kPerAnchor);
    check(threads, 2, geom::KernelMode::kBatch, rtree::TraversalMode::kShared);
  }
  if (mismatches == 0) {
    std::printf("determinism check PASSED: every build serialized identically\n");
  } else {
    std::printf("determinism check FAILED: %d mismatching build(s)\n", mismatches);
  }
  return mismatches;
}

/// Quick traversal-layer smoke for ctest: one small ICR build per
/// traversal mode, printing the descent/decode/kernel phase breakdown and
/// asserting (a) byte-identical serialized indexes and (b) that the shared
/// session actually reused descent work (fewer node visits).
int RunTraversalSmoke() {
  using namespace uvd;
  datagen::DatasetOptions opts;
  opts.count = 800;
  opts.seed = 42;
  const auto objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);

  uint64_t digests[2] = {0, 0};
  uint64_t node_visits[2] = {0, 0};
  const rtree::TraversalMode modes[2] = {rtree::TraversalMode::kPerAnchor,
                                         rtree::TraversalMode::kShared};
  for (int m = 0; m < 2; ++m) {
    Stats stats;
    core::UVDiagramOptions options;
    options.method = core::BuildMethod::kICR;
    options.build_threads = 1;
    options.cr.traversal_mode = modes[m];
    auto phases = bench::TracePhases([&] {
      const auto d =
          core::UVDiagram::Build(objects, domain, options, &stats).ValueOrDie();
      digests[m] = Fnv1a(SerializedIndex(d));
    });
    node_visits[m] = stats.Get(Ticker::kRtreeNodeVisits);
    std::printf(
        "traversal=%-10s stage1 %.3fs (descent %.3f decode %.3f kernel %.3f) "
        "node_visits %llu digest %016llx\n",
        rtree::TraversalModeName(modes[m]), phases["build/stage1"].seconds(),
        phases["cr/traversal"].seconds() - phases["rtree/decode"].seconds(),
        phases["rtree/decode"].seconds(), phases["cr/kernel"].seconds(),
        static_cast<unsigned long long>(node_visits[m]),
        static_cast<unsigned long long>(digests[m]));
  }
  if (digests[0] != digests[1]) {
    std::printf("traversal smoke FAILED: digests differ across modes\n");
    return 1;
  }
  if (node_visits[1] >= node_visits[0]) {
    std::printf("traversal smoke FAILED: shared mode did not reuse descent "
                "work (%llu >= %llu node visits)\n",
                static_cast<unsigned long long>(node_visits[1]),
                static_cast<unsigned long long>(node_visits[0]));
    return 1;
  }
  std::printf("traversal smoke PASSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uvd;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--traversal-smoke") == 0) {
      bench::PrintBanner("Traversal-session smoke: phase breakdown + digest",
                         "bench_parallel_construction --traversal-smoke");
      return RunTraversalSmoke();
    }
    if (std::strcmp(argv[i], "--determinism-check") == 0) {
      bench::PrintBanner("Stage-2 + kernel + traversal determinism cross-check",
                         "serialized-index digest equality across builds");
      return RunDeterminismCheck() == 0 ? 0 : 1;
    }
  }
  const std::string json_path = bench::ParseJsonPath(argc, argv);
  bench::JsonReport report("parallel_construction_stage1_sweep",
                            bench::ParseRev(argc, argv));

  bench::PrintBanner("Parallel construction: T_c vs threads, kernel, traversal",
                     "staged pipeline over the Fig. 7(a) workload");
  const int nproc = ThreadPool::DefaultThreads();
  std::printf("hardware concurrency: %d\n", nproc);
  std::printf("batch kernels: %s (SIMD %s)\n\n", geom::batch::SimdIsa(),
              geom::batch::SimdEnabled() ? "on" : "off");

  // {1, 2, 4, nproc}, capped at nproc: more workers than cores would only
  // measure oversubscription.
  std::vector<int> thread_sweep;
  for (int threads : {1, 2, 4, nproc}) {
    if (threads <= nproc && (thread_sweep.empty() || threads > thread_sweep.back())) {
      thread_sweep.push_back(threads);
    }
  }
  const core::BuildMethod methods[] = {core::BuildMethod::kBasic,
                                       core::BuildMethod::kICR,
                                       core::BuildMethod::kIC};
  struct ShapeCase {
    const char* name;
    bool cloud;
  };
  const ShapeCase shapes[] = {{"uniform", false}, {"cluster", true}};

  for (core::BuildMethod method : methods) {
    datagen::DatasetOptions opts;
    // Basic is O(n) envelope insertions per object; run it on a reduced
    // size, the pruned methods on the scaled Fig. 7(a) size.
    opts.count = method == core::BuildMethod::kBasic
                     ? bench::ScaledCount(2000)
                     : bench::ScaledCount(10000);
    opts.seed = 42;
    for (const ShapeCase& shape : shapes) {
      // sigma = domain/8 concentrates the mass like the Fig. 7(g) clouds
      // without degenerating every k-NN into the same few leaves.
      const auto objects =
          shape.cloud
              ? datagen::GenerateGaussianCloud(opts, opts.domain_size / 8.0)
              : datagen::GenerateUniform(opts);
      std::printf("%s / %s (|O| = %zu, partitioned stage 2, batch kernel)\n",
                  core::BuildMethodName(method), shape.name, opts.count);
      std::printf("%8s | %11s %10s %8s | %26s\n", "threads", "perA s1(s)",
                  "shrd s1(s)", "s1 spdup", "shared descent/decode/kern(s)");
      for (int threads : thread_sweep) {
        double s1_wall[2] = {0.0, 0.0};
        double breakdown[3] = {0.0, 0.0, 0.0};
        const rtree::TraversalMode traversals[2] = {
            rtree::TraversalMode::kPerAnchor, rtree::TraversalMode::kShared};
        for (int t = 0; t < 2; ++t) {
          // The kernel axis rides along only where it changes the answer
          // materially (scalar vs batch is tracked by earlier PRs'
          // records); the traversal comparison runs the default batch
          // kernel in both modes.
          Stats stats;
          core::UVDiagramOptions options;
          options.method = method;
          options.build_threads = threads;
          options.cr.traversal_mode = traversals[t];
          double total_s = 0;
          auto phases = bench::TracePhases([&] {
            bench::BuildDiagram(objects, datagen::DomainFor(opts), options, &stats,
                                &total_s);
          });
          const auto s = [&phases](const char* phase) { return phases[phase].seconds(); };
          const double descent = s("cr/traversal") - s("rtree/decode");
          s1_wall[t] = s("build/stage1");
          if (traversals[t] == rtree::TraversalMode::kShared) {
            breakdown[0] = descent;
            breakdown[1] = s("rtree/decode");
            breakdown[2] = s("cr/kernel");
          }
          report.BeginRecord();
          report.Add("method", core::BuildMethodName(method));
          report.Add("shape", shape.name);
          report.Add("objects", static_cast<int64_t>(opts.count));
          report.Add("threads", static_cast<int64_t>(threads));
          report.Add("kernel", geom::KernelModeName(geom::KernelMode::kBatch));
          report.Add("simd", geom::batch::SimdEnabled() ? geom::batch::SimdIsa()
                                                        : "none");
          report.Add("traversal", rtree::TraversalModeName(traversals[t]));
          report.Add("stage1_wall_s", s1_wall[t]);
          report.Add("stage2_wall_s", s("build/stage2"));
          // Stage-2 wall split by phase (the build/stage2_* spans).
          report.Add("stage2_member_s", s("build/stage2_member"));
          report.Add("stage2_prefix_s", s("build/stage2_prefix"));
          report.Add("stage2_route_s", s("build/stage2_route"));
          report.Add("stage2_subtree_s", s("build/stage2_subtree"));
          report.Add("stage2_stitch_s", s("build/stage2_stitch"));
          report.Add("stage2_finalize_s", s("build/stage2_finalize"));
          report.Add("total_s", total_s);
          // Wall seconds summed over workers (not thread CPU time; can
          // exceed the stage-1 wall).
          report.Add("descent_wall_sum_s", descent);
          report.Add("decode_wall_sum_s", s("rtree/decode"));
          report.Add("kernel_wall_sum_s", s("cr/kernel"));
        }
        std::printf("%8d | %11.2f %10.2f %7.2fx | %8.2f / %6.2f / %6.2f\n",
                    threads, s1_wall[0], s1_wall[1], s1_wall[0] / s1_wall[1],
                    breakdown[0], breakdown[1], breakdown[2]);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "Every cell builds a byte-identical index (rtree/traversal_session.h,\n"
      "geom/batch/kernels.h); run with --determinism-check to verify digests\n"
      "across thread counts, frontier depths, kernels and traversals.\n"
      "The shared columns reuse a per-worker traversal\n"
      "session over Morton-ordered anchor tiles with the per-anchor columns\n"
      "as their oracle; descent/decode/kernel split stage-1 wall seconds,\n"
      "summed over workers, by phase (tree descent vs leaf decode vs pruning\n"
      "kernels).\n");
  report.WriteTo(json_path);
  return 0;
}
