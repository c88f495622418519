// Failure-injection tests: every disk-touching path must propagate I/O
// errors as Status instead of silently dropping candidates or corrupting
// probabilities, and must recover once the fault heals.
#include <gtest/gtest.h>

#include <optional>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/pnn.h"
#include "datagen/generators.h"
#include "rtree/pnn_baseline.h"
#include "storage/fault_injection.h"

namespace uvd {
namespace {

struct Fixture {
  Stats stats;
  storage::FaultInjectionPageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<core::UVIndex> index;
  geom::Box domain;

  void Build(size_t n = 800, uint64_t seed = 5) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = seed;
    objects = datagen::GenerateUniform(opts);
    domain = datagen::DomainFor(opts);
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    tree.emplace(rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie());
    index.emplace(domain, &pm, core::UVIndexOptions{}, &stats);
    core::BuildPipelineOptions options;
    options.build_threads = 1;
    UVD_CHECK_OK(core::RunBuildPipeline(objects, ptrs, *tree, domain, options, &*index,
                                        nullptr, &stats));
  }
};

TEST(FaultInjectionTest, PageManagerInjectsOnSchedule) {
  storage::FaultInjectionPageManager pm(256);
  const storage::PageId p = pm.Allocate();
  std::vector<uint8_t> buf{1, 2, 3};
  ASSERT_TRUE(pm.Write(p, buf).ok());

  pm.FailReadsAfter(2);
  std::vector<uint8_t> out;
  EXPECT_TRUE(pm.Read(p, &out).ok());   // 1st ok
  EXPECT_TRUE(pm.Read(p, &out).ok());   // 2nd ok
  EXPECT_EQ(pm.Read(p, &out).code(), StatusCode::kIOError);
  EXPECT_EQ(pm.injected_read_faults(), 1u);
  pm.Heal();
  EXPECT_TRUE(pm.Read(p, &out).ok());
}

TEST(FaultInjectionTest, UvIndexQueryPropagatesReadFault) {
  Fixture f;
  f.Build();
  f.pm.FailReadsAfter(0);
  const auto result = f.index->RetrieveCandidates({5000, 5000});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  f.pm.Heal();
  EXPECT_TRUE(f.index->RetrieveCandidates({5000, 5000}).ok());
}

TEST(FaultInjectionTest, UvIndexFullPnnPropagatesFetchFault) {
  Fixture f;
  f.Build();
  // Let the leaf page read succeed, then fail the object-record fetch.
  f.pm.FailReadsAfter(1);
  const auto result =
      core::EvaluatePnnWithUvIndex(*f.index, f.store, {5000, 5000});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, RtreeBaselinePropagatesReadFault) {
  Fixture f;
  f.Build();
  f.pm.FailReadsAfter(0);
  const auto result = rtree::RetrievePnnCandidates(*f.tree, {5000, 5000}, &f.stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  f.pm.Heal();
  EXPECT_TRUE(rtree::RetrievePnnCandidates(*f.tree, {5000, 5000}, &f.stats).ok());
}

TEST(FaultInjectionTest, RtreeFullPnnPropagatesFetchFault) {
  Fixture f;
  f.Build();
  // Exhaust the retrieval's leaf reads, then fail during object fetch:
  // allow a generous number of leaf reads first.
  f.pm.FailReadsAfter(64);
  const auto result = rtree::EvaluatePnnWithRtree(*f.tree, f.store, {5000, 5000});
  // Depending on how many leaves the traversal touches, the fault can land
  // in either phase; both must surface as IOError (or succeed if under 64
  // reads total, in which case rerun with a tighter budget).
  if (result.ok()) {
    f.pm.FailReadsAfter(2);
    const auto tight = rtree::EvaluatePnnWithRtree(*f.tree, f.store, {5000, 5000});
    ASSERT_FALSE(tight.ok());
    EXPECT_EQ(tight.status().code(), StatusCode::kIOError);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST(FaultInjectionTest, ObjectStoreFetchPropagates) {
  Fixture f;
  f.Build(100);
  f.pm.FailReadsAfter(0);
  EXPECT_EQ(f.store.Fetch(f.ptrs[0]).status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, BuildPropagatesLeafReadFault) {
  // Stage 1 reads R-tree leaves through the faulty manager. A failed leaf
  // read must fail the build, never yield an index with missing cr-objects,
  // and once healed the same store must build the clean bytes. Each index
  // gets its own page manager so page ids line up across builds.
  Fixture f;
  f.Build();
  for (rtree::TraversalMode mode :
       {rtree::TraversalMode::kShared, rtree::TraversalMode::kPerAnchor}) {
    SCOPED_TRACE(rtree::TraversalModeName(mode));
    core::BuildPipelineOptions options;
    options.build_threads = 1;  // the fault injector's countdown is not thread-safe
    options.cr.traversal_mode = mode;
    const auto build = [&](storage::PageManager* index_pm, std::vector<uint8_t>* bytes) {
      core::UVIndex index(f.domain, index_pm, core::UVIndexOptions{}, &f.stats);
      UVD_RETURN_NOT_OK(core::RunBuildPipeline(f.objects, f.ptrs, *f.tree, f.domain,
                                               options, &index, nullptr, &f.stats));
      return index.SerializeStructure(bytes);
    };
    storage::PageManager clean_pm(4096), broken_pm(4096), healed_pm(4096);
    std::vector<uint8_t> clean, broken, healed;
    ASSERT_TRUE(build(&clean_pm, &clean).ok());

    f.pm.FailReadsAfter(0);
    EXPECT_EQ(build(&broken_pm, &broken).code(), StatusCode::kIOError);
    f.pm.Heal();

    ASSERT_TRUE(build(&healed_pm, &healed).ok());
    EXPECT_EQ(healed, clean);
  }
}

TEST(FaultInjectionTest, FinalizePropagatesWriteFault) {
  storage::FaultInjectionPageManager pm(4096);
  core::UVIndex index(geom::Box({0, 0}, {1000, 1000}), &pm, {}, nullptr);
  ASSERT_TRUE(index.InsertObject({{500, 500}, 10}, 0, 0, {}).ok());
  pm.FailWritesAfter(0);
  EXPECT_EQ(index.Finalize().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, BulkLoadPropagatesWriteFault) {
  Stats stats;
  storage::FaultInjectionPageManager pm(4096, &stats);
  uncertain::ObjectStore store(&pm);
  datagen::DatasetOptions opts;
  opts.count = 200;
  const auto objects = datagen::GenerateUniform(opts);
  std::vector<uncertain::ObjectPtr> ptrs;
  pm.FailWritesAfter(1);
  EXPECT_EQ(store.BulkLoad(objects, &ptrs).code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, QueriesConsistentAfterTransientFaults) {
  // Faults during queries must not corrupt subsequent healed queries.
  Fixture f;
  f.Build(500, 9);
  const geom::Point q{4321, 8765};
  const auto before = core::RetrievePnnAnswerIds(*f.index, q).ValueOrDie();
  f.pm.FailReadsAfter(0);
  EXPECT_FALSE(core::RetrievePnnAnswerIds(*f.index, q).ok());
  f.pm.Heal();
  EXPECT_EQ(core::RetrievePnnAnswerIds(*f.index, q).ValueOrDie(), before);
}

}  // namespace
}  // namespace uvd
