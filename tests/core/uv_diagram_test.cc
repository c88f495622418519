// Facade tests: build validation, option plumbing, end-to-end behaviour.
#include "core/uv_diagram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "datagen/generators.h"
#include "datagen/workload.h"

namespace uvd {
namespace core {
namespace {

TEST(UvDiagramTest, RejectsEmptyDataset) {
  auto d = UVDiagram::Build({}, geom::Box({0, 0}, {10, 10}));
  EXPECT_FALSE(d.ok());
}

TEST(UvDiagramTest, RejectsOutOfOrderIds) {
  std::vector<uncertain::UncertainObject> objs;
  objs.push_back(uncertain::UncertainObject::WithGaussianPdf(1, {{5, 5}, 1}));
  auto d = UVDiagram::Build(std::move(objs), geom::Box({0, 0}, {10, 10}));
  EXPECT_FALSE(d.ok());
}

TEST(UvDiagramTest, RejectsCentersOutsideDomain) {
  std::vector<uncertain::UncertainObject> objs;
  objs.push_back(uncertain::UncertainObject::WithGaussianPdf(0, {{50, 5}, 1}));
  auto d = UVDiagram::Build(std::move(objs), geom::Box({0, 0}, {10, 10}));
  EXPECT_FALSE(d.ok());
}

TEST(UvDiagramTest, BuildPopulatesEverything) {
  datagen::DatasetOptions opts;
  opts.count = 500;
  opts.seed = 3;
  auto objects = datagen::GenerateUniform(opts);
  const auto domain = datagen::DomainFor(opts);
  auto d = UVDiagram::Build(std::move(objects), domain).ValueOrDie();
  EXPECT_EQ(d.objects().size(), 500u);
  EXPECT_GT(d.index().num_leaves(), 0u);
  EXPECT_GT(d.rtree().ValueOrDie()->num_leaf_pages(), 0u);
  EXPECT_GT(d.store().num_pages(), 0u);
  EXPECT_EQ(d.options().method, BuildMethod::kIC);
}

TEST(UvDiagramTest, ExternalStatsAreUsed) {
  Stats stats;
  datagen::DatasetOptions opts;
  opts.count = 200;
  auto objects = datagen::GenerateUniform(opts);
  auto d = UVDiagram::Build(std::move(objects), datagen::DomainFor(opts), {}, &stats)
               .ValueOrDie();
  EXPECT_GT(stats.Get(Ticker::kEnvelopeInsertions), 0u);
  stats.Reset();
  ASSERT_TRUE(d.QueryPnn({5000, 5000}).ok());
  EXPECT_GT(stats.Get(Ticker::kUvIndexLeafReads), 0u);
}

TEST(UvDiagramTest, WorksWithAllBuildMethods) {
  datagen::DatasetOptions opts;
  opts.count = 150;
  opts.seed = 5;
  const auto domain = datagen::DomainFor(opts);
  const auto queries = datagen::UniformQueryPoints(10, domain, 99);
  std::vector<std::vector<int>> per_method;
  for (BuildMethod m : {BuildMethod::kBasic, BuildMethod::kICR, BuildMethod::kIC}) {
    UVDiagram::Options options;
    options.method = m;
    auto d = UVDiagram::Build(datagen::GenerateUniform(opts), domain, options)
                 .ValueOrDie();
    std::vector<int> all_ids;
    for (const auto& q : queries) {
      const auto ids = d.AnswerObjectIds(q).ValueOrDie();
      all_ids.insert(all_ids.end(), ids.begin(), ids.end());
    }
    per_method.push_back(std::move(all_ids));
  }
  EXPECT_EQ(per_method[0], per_method[1]);
  EXPECT_EQ(per_method[0], per_method[2]);
}

TEST(UvDiagramTest, MoveSemantics) {
  datagen::DatasetOptions opts;
  opts.count = 100;
  auto objects = datagen::GenerateUniform(opts);
  auto d = UVDiagram::Build(std::move(objects), datagen::DomainFor(opts)).ValueOrDie();
  UVDiagram moved = std::move(d);
  const auto answers = moved.QueryPnn({5000, 5000}).ValueOrDie();
  EXPECT_FALSE(answers.empty());
}

TEST(UvDiagramTest, ConcurrentRtreeQueriesAfterInsertDoNotRace) {
  // Regression: RefreshRtreeIfStale used to check and mutate rtree_ /
  // rtree_stale_ under `const` with no synchronization, so concurrent
  // QueryPnnWithRtree callers raced on the staleness flag (and, were the
  // tree ever left stale, on the rebuild itself). The check-and-rebuild is
  // now serialized behind rtree_mu_; this test drives the concurrent
  // refresh path after an insert and runs in the TSan CI job.
  datagen::DatasetOptions opts;
  opts.count = 250;
  opts.seed = 41;
  auto d = UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
               .ValueOrDie();
  const int new_id = static_cast<int>(d.objects().size());
  ASSERT_TRUE(d.InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                                 new_id, {{5000, 5000}, 30}))
                  .ok());  // leaves the R-tree a one-entry tail to fold

  const auto queries = datagen::UniformQueryPoints(12, d.domain(), 43);
  std::vector<std::thread> threads;
  std::vector<int> answer_counts(4, 0);
  // Spin barrier: all threads hit their first (folding) query together, so
  // the racy interleaving actually materializes under TSan.
  std::atomic<int> ready{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&d, &queries, &answer_counts, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
      }
      int count = 0;
      for (const auto& q : queries) {
        auto answers = d.QueryPnnWithRtree(q);
        ASSERT_TRUE(answers.ok());
        count += static_cast<int>(answers.value().size());
      }
      answer_counts[static_cast<size_t>(t)] = count;
    });
  }
  for (auto& t : threads) t.join();
  // Every thread saw the post-insert tree and identical answers.
  for (int t = 1; t < 4; ++t) EXPECT_EQ(answer_counts[0], answer_counts[t]);
  EXPECT_GT(answer_counts[0], 0);
}

TEST(UvDiagramTest, UniformPdfDatasets) {
  datagen::DatasetOptions opts;
  opts.count = 200;
  opts.pdf = uncertain::PdfKind::kUniform;
  auto objects = datagen::GenerateUniform(opts);
  auto d = UVDiagram::Build(std::move(objects), datagen::DomainFor(opts)).ValueOrDie();
  const auto answers = d.QueryPnn({5000, 5000}).ValueOrDie();
  ASSERT_FALSE(answers.empty());
  double total = 0;
  for (const auto& a : answers) total += a.probability;
  EXPECT_NEAR(total, 1.0, 5e-3);
}

}  // namespace
}  // namespace core
}  // namespace uvd
