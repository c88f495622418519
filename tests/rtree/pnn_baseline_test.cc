// Tests for the branch-and-prune PNN baseline of [14]: correctness of the
// candidate set against brute force, pruning effectiveness.
#include "rtree/pnn_baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/random.h"

namespace uvd {
namespace rtree {
namespace {

struct Fixture {
  Stats stats;
  storage::PageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<RTree> tree;

  void Build(int n, uint64_t seed = 3, double radius = 20) {
    Rng rng(seed);
    objects.clear();
    for (int i = 0; i < n; ++i) {
      objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
          i, geom::Circle({rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, radius)));
    }
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    auto t = RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats);
    UVD_CHECK(t.ok());
    tree.emplace(std::move(t).value());
  }

  /// Brute-force answer-object ids: dist_min <= min_j dist_max.
  std::vector<int> BruteAnswers(const geom::Point& q) const {
    double d_minmax = std::numeric_limits<double>::infinity();
    for (const auto& o : objects) d_minmax = std::min(d_minmax, o.DistMax(q));
    std::vector<int> ids;
    for (const auto& o : objects) {
      if (o.DistMin(q) <= d_minmax) ids.push_back(o.id());
    }
    return ids;
  }
};

TEST(PnnBaselineTest, CandidateSetMatchesBruteForce) {
  Fixture f;
  f.Build(2000, 101);
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto retrieval = RetrievePnnCandidates(*f.tree, q, &f.stats).ValueOrDie();
    std::vector<int> got;
    for (const auto& e : retrieval.candidates) got.push_back(e.id);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, f.BruteAnswers(q)) << "trial " << trial;
  }
}

TEST(PnnBaselineTest, DMinMaxIsCorrect) {
  Fixture f;
  f.Build(500, 7);
  const geom::Point q{5000, 5000};
  const auto retrieval = RetrievePnnCandidates(*f.tree, q, &f.stats).ValueOrDie();
  double want = std::numeric_limits<double>::infinity();
  for (const auto& o : f.objects) want = std::min(want, o.DistMax(q));
  EXPECT_NEAR(retrieval.d_minmax, want, 1e-9);
}

TEST(PnnBaselineTest, ReadsOnlyAFractionOfLeaves) {
  Fixture f;
  f.Build(5000, 13);
  f.stats.Reset();
  auto unused = RetrievePnnCandidates(*f.tree, {5000, 5000}, &f.stats);
  ASSERT_TRUE(unused.ok());
  const uint64_t reads = f.stats.Get(Ticker::kRtreeLeafReads);
  EXPECT_GT(reads, 0u);
  EXPECT_LT(reads, f.tree->num_leaf_pages() / 2)
      << "pruning should skip most leaves";
}

TEST(PnnBaselineTest, FullEvaluationProbabilitiesSumToOne) {
  Fixture f;
  f.Build(1000, 19);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto answers =
        EvaluatePnnWithRtree(*f.tree, f.store, q, {}, &f.stats).ValueOrDie();
    ASSERT_FALSE(answers.empty());
    double total = 0;
    for (const auto& a : answers) total += a.probability;
    EXPECT_NEAR(total, 1.0, 5e-3);
  }
}

TEST(PnnBaselineTest, AnswerSetMatchesBruteForceThroughFullPath) {
  Fixture f;
  f.Build(800, 23, 40);
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const auto answers = EvaluatePnnWithRtree(*f.tree, f.store, q).ValueOrDie();
    std::vector<int> got;
    for (const auto& a : answers) got.push_back(a.id);
    std::sort(got.begin(), got.end());
    // Numerical integration can assign (correctly) zero weight to marginal
    // candidates, so got must be a subset of brute answers that contains
    // every object with substantial probability. At minimum: nonempty and
    // subset.
    const auto want = f.BruteAnswers(q);
    ASSERT_FALSE(got.empty());
    for (int id : got) {
      EXPECT_TRUE(std::binary_search(want.begin(), want.end(), id));
    }
  }
}

TEST(PnnBaselineTest, DenseClusterManyAnswers) {
  // Objects piled together: many candidates survive; probabilities spread.
  Stats stats;
  storage::PageManager pm(4096, &stats);
  uncertain::ObjectStore store(&pm);
  std::vector<uncertain::UncertainObject> objects;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
        i, geom::Circle({5000 + rng.Uniform(-30, 30), 5000 + rng.Uniform(-30, 30)},
                        25)));
  }
  std::vector<uncertain::ObjectPtr> ptrs;
  UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
  auto tree = RTree::BulkLoad(objects, ptrs, &pm, {100}, &stats).ValueOrDie();
  const auto answers =
      EvaluatePnnWithRtree(tree, store, {5000, 5000}).ValueOrDie();
  EXPECT_GT(answers.size(), 5u);
}

}  // namespace
}  // namespace rtree
}  // namespace uvd
