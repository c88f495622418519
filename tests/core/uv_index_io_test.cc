// Tests for UV-index persistence: save to pages, load, and verify that the
// reloaded index is indistinguishable from the original.
#include "core/uv_index_io.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/pattern_queries.h"
#include "core/pnn.h"
#include "datagen/generators.h"
#include "datagen/workload.h"

namespace uvd {
namespace core {
namespace {

struct Fixture {
  Stats stats;
  storage::PageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<UVIndex> index;
  geom::Box domain;

  void Build(size_t n, uint64_t seed = 3) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = seed;
    objects = datagen::GenerateUniform(opts);
    domain = datagen::DomainFor(opts);
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    tree.emplace(rtree::RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie());
    index.emplace(domain, &pm, UVIndexOptions{}, &stats);
    BuildPipelineOptions options;
    options.build_threads = 1;
    UVD_CHECK_OK(RunBuildPipeline(objects, ptrs, *tree, domain, options, &*index,
                                  nullptr, &stats));
  }
};

TEST(UvIndexIoTest, SaveLoadRoundTripAnswers) {
  Fixture f;
  f.Build(1000);
  auto handle = SaveUvIndex(*f.index, &f.pm);
  ASSERT_TRUE(handle.ok());
  EXPECT_GT(handle.value().page_count, 0u);

  auto loaded = LoadUvIndex(&f.pm, handle.value(), &f.stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const UVIndex& reloaded = loaded.value();
  EXPECT_TRUE(reloaded.finalized());
  EXPECT_EQ(reloaded.num_leaves(), f.index->num_leaves());
  EXPECT_EQ(reloaded.num_nonleaf(), f.index->num_nonleaf());
  EXPECT_EQ(reloaded.height(), f.index->height());

  for (const auto& q : datagen::UniformQueryPoints(40, f.domain, 7)) {
    EXPECT_EQ(RetrievePnnAnswerIds(reloaded, q).ValueOrDie(),
              RetrievePnnAnswerIds(*f.index, q).ValueOrDie());
  }
}

TEST(UvIndexIoTest, PatternQueriesSurviveReload) {
  Fixture f;
  f.Build(600, 11);
  auto handle = SaveUvIndex(*f.index, &f.pm).ValueOrDie();
  auto reloaded = LoadUvIndex(&f.pm, handle, &f.stats).ValueOrDie();

  const geom::Box range({3000, 3000}, {4000, 4000});
  const auto before = RetrieveUvPartitions(*f.index, range);
  const auto after = RetrieveUvPartitions(reloaded, range);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].object_count, after[i].object_count);
    EXPECT_DOUBLE_EQ(before[i].density, after[i].density);
  }
  const auto summary = RetrieveUvCellSummary(reloaded, 42);
  EXPECT_TRUE(summary.ok());
}

TEST(UvIndexIoTest, LiveInsertWorksAfterReload) {
  Fixture f;
  f.Build(400, 13);
  auto handle = SaveUvIndex(*f.index, &f.pm).ValueOrDie();
  auto reloaded = LoadUvIndex(&f.pm, handle, &f.stats).ValueOrDie();

  // Insert a new object into the reloaded index (empty cr set: its cell is
  // conservatively the whole domain — correct, just unpruned).
  const geom::Circle region({5000, 5000}, 20);
  ASSERT_TRUE(reloaded.InsertObjectLive(region, 400, 0, {}).ok());
  auto tuples = reloaded.RetrieveCandidates({5000, 5000});
  ASSERT_TRUE(tuples.ok());
  bool found = false;
  for (const auto& e : tuples.value()) found |= (e.id == 400);
  EXPECT_TRUE(found);
}

TEST(UvIndexIoTest, RejectsUnfinalizedIndex) {
  storage::PageManager pm(4096);
  UVIndex index(geom::Box({0, 0}, {100, 100}), &pm, {}, nullptr);
  EXPECT_FALSE(SaveUvIndex(index, &pm).ok());
}

TEST(UvIndexIoTest, RejectsGarbage) {
  storage::PageManager pm(4096);
  const storage::PageId page = pm.Allocate().ValueOrDie();
  ASSERT_TRUE(pm.Write(page, std::vector<uint8_t>(64, 0xAB)).ok());
  auto loaded = LoadUvIndex(&pm, {page, 1}, nullptr);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(LoadUvIndex(&pm, {}, nullptr).ok());
}

TEST(UvIndexIoTest, LeafPagesAreSharedNotCopied) {
  Fixture f;
  f.Build(500, 17);
  const size_t pages_before = f.pm.num_pages();
  auto handle = SaveUvIndex(*f.index, &f.pm).ValueOrDie();
  // Only the structure pages were added, far fewer than the leaf pages.
  EXPECT_EQ(f.pm.num_pages(), pages_before + handle.page_count);
  EXPECT_LT(handle.page_count, f.index->total_leaf_pages());
}

}  // namespace
}  // namespace core
}  // namespace uvd
