// Tests for incremental insertion (paper Sec. VII future work): after any
// mix of bulk construction and live inserts, both query paths must answer
// exactly like brute force over the full population.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "datagen/workload.h"

namespace uvd {
namespace core {
namespace {

std::vector<int> BruteAnswers(const std::vector<uncertain::UncertainObject>& objs,
                              const geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const auto& o : objs) d_minmax = std::min(d_minmax, o.DistMax(q));
  std::vector<int> ids;
  for (const auto& o : objs) {
    if (o.DistMin(q) <= d_minmax) ids.push_back(o.id());
  }
  return ids;
}

uncertain::UncertainObject RandomObject(int id, Rng* rng) {
  return uncertain::UncertainObject::WithGaussianPdf(
      id, {{rng->Uniform(0, 10000), rng->Uniform(0, 10000)}, 20});
}

TEST(LiveInsertTest, AnswersStayExactAfterInserts) {
  datagen::DatasetOptions opts;
  opts.count = 400;
  opts.seed = 3;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  Rng rng(7);
  for (int k = 0; k < 40; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 20}))
                    .ok());
  }
  EXPECT_EQ(diagram.objects().size(), 440u);
  for (const auto& q : datagen::UniformQueryPoints(40, diagram.domain(), 99)) {
    EXPECT_EQ(diagram.AnswerObjectIds(q).ValueOrDie(),
              BruteAnswers(diagram.objects(), q));
  }
}

TEST(LiveInsertTest, BothPathsAgreeAfterInserts) {
  datagen::DatasetOptions opts;
  opts.count = 300;
  opts.seed = 5;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  Rng rng(9);
  for (int k = 0; k < 20; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 30}))
                    .ok());
  }
  for (const auto& q : datagen::UniformQueryPoints(20, diagram.domain(), 11)) {
    const auto uv = diagram.QueryPnn(q).ValueOrDie();
    const auto rt = diagram.QueryPnnWithRtree(q).ValueOrDie();
    ASSERT_EQ(uv.size(), rt.size());
    for (size_t i = 0; i < uv.size(); ++i) {
      EXPECT_EQ(uv[i].id, rt[i].id);
      EXPECT_NEAR(uv[i].probability, rt[i].probability, 1e-12);
    }
  }
}

TEST(LiveInsertTest, InsertedObjectBecomesAnswerAtItsLocation) {
  datagen::DatasetOptions opts;
  opts.count = 200;
  opts.seed = 13;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  const geom::Point spot{7777, 2222};
  ASSERT_TRUE(diagram
                  .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                      200, {spot, 25}))
                  .ok());
  const auto ids = diagram.AnswerObjectIds(spot).ValueOrDie();
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 200) != ids.end())
      << "a freshly inserted object must answer at its own center";
}

TEST(LiveInsertTest, RejectsBadIds) {
  datagen::DatasetOptions opts;
  opts.count = 50;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  EXPECT_FALSE(diagram
                   .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                       7, {{100, 100}, 10}))
                   .ok());
  EXPECT_FALSE(diagram
                   .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                       50, {{-5, 100}, 10}))
                   .ok());
}

TEST(LiveInsertTest, PatternQueriesSeeInsertedObjects) {
  datagen::DatasetOptions opts;
  opts.count = 150;
  opts.seed = 17;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  ASSERT_TRUE(diagram
                  .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                      150, {{5000, 5000}, 20}))
                  .ok());
  const auto summary = diagram.QueryUvCellSummary(150);
  ASSERT_TRUE(summary.ok());
  EXPECT_GE(summary.value().num_leaves, 1u);
}

TEST(LiveInsertTest, AnswersStayExactInDenseCore) {
  // A tight Gaussian cloud gives most objects more than 32 cr-objects, so
  // every live-insert CheckOverlap here is a long Algorithm 5 scan. The
  // inserts land in the cloud's core and queries probe it.
  datagen::DatasetOptions opts;
  opts.count = 700;
  opts.seed = 23;
  auto diagram = UVDiagram::Build(datagen::GenerateGaussianCloud(opts, 300.0),
                                  datagen::DomainFor(opts))
                     .ValueOrDie();
  Rng rng(29);
  for (int k = 0; k < 30; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Gaussian(5000, 300), rng.Gaussian(5000, 300)}, 20}))
                    .ok());
  }
  for (int t = 0; t < 60; ++t) {
    const geom::Point q{rng.Gaussian(5000, 300), rng.Gaussian(5000, 300)};
    EXPECT_EQ(diagram.AnswerObjectIds(q).ValueOrDie(), BruteAnswers(diagram.objects(), q))
        << "t=" << t;
  }
}

TEST(LiveInsertTest, ManyInsertsLengthenLeafChains) {
  // The frozen grid absorbs inserts as page-chain growth, not splits.
  datagen::DatasetOptions opts;
  opts.count = 300;
  opts.seed = 19;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  const int nonleaf_before = diagram.index().num_nonleaf();
  const size_t pages_before = diagram.index().total_leaf_pages();
  Rng rng(23);
  for (int k = 0; k < 150; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(4000, 6000), rng.Uniform(4000, 6000)}, 20}))
                    .ok());
  }
  EXPECT_EQ(diagram.index().num_nonleaf(), nonleaf_before) << "no live splits";
  EXPECT_GE(diagram.index().total_leaf_pages(), pages_before);
}

TEST(LiveInsertTest, TailMatchesRebuildPerInsert) {
  // Diagram A keeps live inserts in the R-tree's tail, folding it once a
  // leaf page's worth (fanout 100) has gathered: 250 inserts cross two
  // folds. Diagram B calls rtree() after every insert, which folds each
  // time, as a rebuild per insert. k-NN order and range sets do not
  // depend on the tree's shape, so both indexes must serialize to the
  // same bytes and answer alike, and like brute force.
  datagen::DatasetOptions opts;
  opts.count = 400;
  opts.seed = 31;
  auto a = UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
               .ValueOrDie();
  auto b = UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
               .ValueOrDie();
  Rng rng(37);
  for (int k = 0; k < 250; ++k) {
    const auto object = RandomObject(static_cast<int>(a.objects().size()), &rng);
    ASSERT_TRUE(a.InsertObject(object).ok());
    ASSERT_TRUE(b.InsertObject(object).ok());
    ASSERT_TRUE(b.rtree().ok());
  }
  std::vector<uint8_t> bytes_a;
  std::vector<uint8_t> bytes_b;
  ASSERT_TRUE(a.index().SerializeStructure(&bytes_a).ok());
  ASSERT_TRUE(b.index().SerializeStructure(&bytes_b).ok());
  EXPECT_EQ(bytes_a, bytes_b);
  for (const auto& q : datagen::UniformQueryPoints(40, a.domain(), 41)) {
    const auto ids = a.AnswerObjectIds(q).ValueOrDie();
    EXPECT_EQ(ids, BruteAnswers(a.objects(), q));
    EXPECT_EQ(b.AnswerObjectIds(q).ValueOrDie(), ids);
    const auto pnn_a = a.QueryPnn(q).ValueOrDie();
    const auto pnn_b = b.QueryPnn(q).ValueOrDie();
    ASSERT_EQ(pnn_a.size(), pnn_b.size());
    for (size_t i = 0; i < pnn_a.size(); ++i) {
      EXPECT_EQ(pnn_a[i].id, pnn_b[i].id);
      EXPECT_EQ(pnn_a[i].probability, pnn_b[i].probability);
    }
  }
}

TEST(LiveInsertTest, InsertsAllocateFewDurablePages) {
  // A live insert writes its record and the leaf pages it joins; the
  // R-tree's tail and its folds stay in RAM. Fanout 20 makes the 50
  // inserts cross two folds.
  const std::string path = ::testing::TempDir() + "/uvd_live_insert_growth";
  std::remove(path.c_str());
  datagen::DatasetOptions opts;
  opts.count = 1000;
  opts.seed = 43;
  UVDiagramOptions options;
  options.storage_path = path;
  options.rtree.fanout = 20;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts), options)
          .ValueOrDie();
  Rng rng(47);
  for (int k = 0; k < 50; ++k) {
    const size_t pages0 = diagram.page_manager().num_pages();
    ASSERT_TRUE(
        diagram.InsertObject(RandomObject(static_cast<int>(diagram.objects().size()), &rng))
            .ok());
    EXPECT_LT(diagram.page_manager().num_pages() - pages0, 10u) << "insert " << k;
  }
  for (const auto& q : datagen::UniformQueryPoints(20, diagram.domain(), 53)) {
    EXPECT_EQ(diagram.AnswerObjectIds(q).ValueOrDie(), BruteAnswers(diagram.objects(), q));
  }
  ASSERT_TRUE(diagram.CloseStorage().ok());
  std::remove(path.c_str());
}

TEST(LiveInsertTest, ConcurrentRtreeQueriesFoldTheTailOnce) {
  // Five inserts leave a tail; four threads then enter the R-tree path
  // together. One of them folds the tail under the diagram's lock, the
  // rest see the folded tree, and all answer like the UV-index. Runs in
  // the TSan CI job.
  datagen::DatasetOptions opts;
  opts.count = 600;
  opts.seed = 59;
  auto d = UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
               .ValueOrDie();
  Rng rng(61);
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(d.InsertObject(RandomObject(static_cast<int>(d.objects().size()), &rng)).ok());
  }
  const auto queries = datagen::UniformQueryPoints(12, d.domain(), 67);
  std::vector<std::vector<uncertain::PnnAnswer>> want;
  for (const auto& q : queries) want.push_back(d.QueryPnn(q).ValueOrDie());

  const uint64_t writes0 = d.stats().Get(Ticker::kPageWrites);
  std::vector<std::vector<std::vector<uncertain::PnnAnswer>>> got(4);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
      }
      for (const auto& q : queries) {
        auto answers = d.QueryPnnWithRtree(q);
        got[t].push_back(answers.ok() ? std::move(answers).value()
                                      : std::vector<uncertain::PnnAnswer>{});
      }
    });
  }
  for (auto& t : threads) t.join();
  // The one fold wrote the in-RAM tree's leaf pages; reading the tree
  // again writes nothing, because the tail is empty.
  const rtree::RTree* tree = d.rtree().ValueOrDie();
  EXPECT_TRUE(tree->tail().empty());
  EXPECT_EQ(tree->num_objects(), d.objects().size());
  EXPECT_EQ(d.stats().Get(Ticker::kPageWrites) - writes0, tree->num_leaf_pages());
  for (size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[t][i].size(), want[i].size()) << "thread " << t << " query " << i;
      for (size_t j = 0; j < want[i].size(); ++j) {
        EXPECT_EQ(got[t][i][j].id, want[i][j].id);
        EXPECT_NEAR(got[t][i][j].probability, want[i][j].probability, 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace uvd
