// Tests for the Basic / ICR / IC construction methods: all three must
// produce indexes that answer identically; stats decompositions populated.
#include "core/build_pipeline.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/random.h"
#include "core/pnn.h"
#include "datagen/generators.h"
#include "testing/phase_trace.h"

namespace uvd {
namespace core {
namespace {

/// The pipeline on one thread, as every test here builds.
BuildPipelineOptions SerialOptions(BuildMethod method) {
  BuildPipelineOptions options;
  options.method = method;
  options.build_threads = 1;
  return options;
}

struct Built {
  Stats stats;
  std::unique_ptr<storage::PageManager> pm;
  std::unique_ptr<uncertain::ObjectStore> store;
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<UVIndex> index;
  BuildStats build_stats;
};

Built BuildWith(BuildMethod method, size_t n, uint64_t seed) {
  Built b;
  b.pm = std::make_unique<storage::PageManager>(4096, &b.stats);
  b.store = std::make_unique<uncertain::ObjectStore>(b.pm.get());
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  b.objects = datagen::GenerateUniform(opts);
  const geom::Box domain = datagen::DomainFor(opts);
  UVD_CHECK_OK(b.store->BulkLoad(b.objects, &b.ptrs));
  b.tree.emplace(
      rtree::RTree::BulkLoad(b.objects, b.ptrs, b.pm.get(), {100}, &b.stats)
          .ValueOrDie());
  b.index.emplace(domain, b.pm.get(), UVIndexOptions{}, &b.stats);
  UVD_CHECK_OK(RunBuildPipeline(b.objects, b.ptrs, *b.tree, domain, SerialOptions(method),
                                &*b.index, &b.build_stats, &b.stats));
  return b;
}

TEST(BuilderTest, MethodNames) {
  EXPECT_STREQ(BuildMethodName(BuildMethod::kBasic), "Basic");
  EXPECT_STREQ(BuildMethodName(BuildMethod::kICR), "ICR");
  EXPECT_STREQ(BuildMethodName(BuildMethod::kIC), "IC");
}

TEST(BuilderTest, AllMethodsAnswerIdentically) {
  const size_t n = 300;
  const uint64_t seed = 7;
  Built basic = BuildWith(BuildMethod::kBasic, n, seed);
  Built icr = BuildWith(BuildMethod::kICR, n, seed);
  Built ic = BuildWith(BuildMethod::kIC, n, seed);
  Rng rng(3);
  for (int t = 0; t < 40; ++t) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto a_basic = RetrievePnnAnswerIds(*basic.index, q).ValueOrDie();
    const auto a_icr = RetrievePnnAnswerIds(*icr.index, q).ValueOrDie();
    const auto a_ic = RetrievePnnAnswerIds(*ic.index, q).ValueOrDie();
    EXPECT_EQ(a_basic, a_icr) << "t=" << t;
    EXPECT_EQ(a_basic, a_ic) << "t=" << t;
  }
}

TEST(BuilderTest, IcDoesLessEnvelopeWorkThanIcrThanBasicOnLargerSets) {
  const size_t n = 1200;
  const uint64_t seed = 11;
  Built basic = BuildWith(BuildMethod::kBasic, n, seed);
  Built icr = BuildWith(BuildMethod::kICR, n, seed);
  Built ic = BuildWith(BuildMethod::kIC, n, seed);
  // Trends, not absolutes, counted rather than timed: Basic pays O(n)
  // envelope work per object; ICR pays pruning + refinement; IC pays
  // pruning only.
  const auto work = [](const Built& b) {
    return b.stats.Get(Ticker::kEnvelopeInsertions);
  };
  EXPECT_LT(work(ic), work(icr));
  EXPECT_LT(work(icr), work(basic));
}

TEST(BuilderTest, BreakdownsPopulated) {
  Built ic = BuildWith(BuildMethod::kIC, 400, 13);
  EXPECT_EQ(ic.build_stats.avg_r_objects, 0.0);  // IC never refines
  EXPECT_GT(ic.build_stats.avg_cr_objects, 0.0);
  EXPECT_GT(ic.build_stats.i_pruning_ratio, 0.0);
  EXPECT_GE(ic.build_stats.c_pruning_ratio, ic.build_stats.i_pruning_ratio);

  Built icr = BuildWith(BuildMethod::kICR, 400, 13);
  EXPECT_GT(icr.build_stats.avg_r_objects, 0.0);
  EXPECT_LE(icr.build_stats.avg_r_objects, icr.build_stats.avg_cr_objects);

  Built basic = BuildWith(BuildMethod::kBasic, 400, 13);
  EXPECT_EQ(basic.build_stats.avg_cr_objects, 0.0);  // Basic never prunes
}

TEST(BuilderTest, PhaseSpansFollowTheMethod) {
  UVD_SKIP_WITHOUT_TRACING();
  // The Fig. 7(d)/(e) components: IC prunes and indexes but never
  // generates r-objects; ICR does all three; Basic never prunes.
  const auto phases_of = [](BuildMethod method) {
    test::PhaseTrace trace;
    BuildWith(method, 400, 13);
    return trace.Totals();
  };
  auto ic = phases_of(BuildMethod::kIC);
  EXPECT_GT(ic["cr/prune"].total_ns, 0u);
  EXPECT_GT(ic["build/stage2"].total_ns, 0u);
  EXPECT_EQ(ic["build/robject"].count, 0u);

  auto icr = phases_of(BuildMethod::kICR);
  EXPECT_EQ(icr["cr/seed"].count, 400u);  // one Algorithm 2 run per object
  EXPECT_GT(icr["build/robject"].total_ns, 0u);

  auto basic = phases_of(BuildMethod::kBasic);
  EXPECT_GT(basic["build/robject"].total_ns, 0u);
  EXPECT_EQ(basic["cr/prune"].count, 0u);
}

TEST(BuilderTest, RejectsMismatchedInput) {
  Built b = BuildWith(BuildMethod::kIC, 10, 17);
  UVIndex fresh(geom::Box({0, 0}, {10000, 10000}), b.pm.get(), {}, &b.stats);
  std::vector<uncertain::ObjectPtr> short_ptrs(b.ptrs.begin(), b.ptrs.end() - 1);
  EXPECT_FALSE(RunBuildPipeline(b.objects, short_ptrs, *b.tree, b.index->domain(),
                                SerialOptions(BuildMethod::kIC), &fresh, nullptr,
                                &b.stats)
                   .ok());
}

TEST(BuilderTest, IcrIndexesFewerConstraintsThanIc) {
  // ICR refines C_i down to F_i, so the average indexed set is smaller.
  Built icr = BuildWith(BuildMethod::kICR, 600, 19);
  Built ic = BuildWith(BuildMethod::kIC, 600, 19);
  EXPECT_LT(icr.build_stats.avg_r_objects, ic.build_stats.avg_cr_objects);
}

}  // namespace
}  // namespace core
}  // namespace uvd
