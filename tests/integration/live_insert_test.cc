// Tests for incremental insertion (paper Sec. VII future work): after any
// mix of bulk construction and live inserts, both query paths must answer
// exactly like brute force over the full population.
#include <gtest/gtest.h>

#include <algorithm>

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

}  // namespace
}  // namespace core
}  // namespace uvd
