// Tests for PNN qualification probabilities: conservation, the d_minmax
// verifier of [14], agreement with Monte Carlo, and edge cases.
#include "uncertain/qualification.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/random.h"
#include "uncertain/monte_carlo.h"
#include "qualification_oracle.h"

namespace uvd {
namespace uncertain {
namespace {

UncertainObject Gauss(int id, geom::Point c, double r) {
  return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Gaussian(r));
}

std::vector<const UncertainObject*> Refs(const std::vector<UncertainObject>& objs) {
  std::vector<const UncertainObject*> refs;
  for (const auto& o : objs) refs.push_back(&o);
  return refs;
}

double TotalProbability(const std::vector<PnnAnswer>& answers) {
  return std::accumulate(answers.begin(), answers.end(), 0.0,
                         [](double acc, const PnnAnswer& a) { return acc + a.probability; });
}

TEST(FilterTest, DMinMaxRemovesDominatedObjects) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {10, 0}, 2));    // dist_max = 12
  objs.push_back(Gauss(1, {11, 0}, 2));    // dist_min = 9 <= 12: stays
  objs.push_back(Gauss(2, {100, 0}, 2));   // dist_min = 98 > 12: pruned
  const auto kept = FilterByDMinMax(Refs(objs), {0, 0});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0]->id(), 0);
  EXPECT_EQ(kept[1]->id(), 1);
}

TEST(FilterTest, BoundaryObjectKept) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {10, 0}, 0));   // point at distance 10
  objs.push_back(Gauss(1, {10, 0.0}, 0));
  const auto kept = FilterByDMinMax(Refs(objs), {0, 0});
  EXPECT_EQ(kept.size(), 2u);  // exact tie: both can be the NN
}

TEST(QualificationTest, SingleObjectHasProbabilityOne) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(5, {3, 3}, 2));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 5);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, ProbabilitiesSumToOne) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)},
                           rng.Uniform(0.5, 10)));
    }
    const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
    EXPECT_NEAR(TotalProbability(answers), 1.0, 5e-3) << "trial " << trial;
  }
}

TEST(QualificationTest, SymmetricPairSplitsEvenly) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {-10, 0}, 3));
  objs.push_back(Gauss(1, {10, 0}, 3));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_NEAR(answers[0].probability, 0.5, 1e-3);
  EXPECT_NEAR(answers[1].probability, 0.5, 1e-3);
}

TEST(QualificationTest, CloserObjectWinsMore) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 3));  // distances in [2, 8]
  objs.push_back(Gauss(1, {9, 0}, 3));  // distances in [6, 12]: overlaps
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_GT(answers[0].probability, 0.8);
  EXPECT_GT(answers[1].probability, 0.0);
}

TEST(QualificationTest, DominatedObjectExcluded) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 1));    // dist_max = 6
  objs.push_back(Gauss(1, {50, 0}, 1));   // dist_min = 49: no chance
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, MatchesMonteCarlo) {
  Rng rng(2024);
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {6, 2}, 4));
  objs.push_back(Gauss(1, {9, -3}, 5));
  objs.push_back(Gauss(2, {-8, 1}, 6));
  objs.push_back(Gauss(3, {12, 10}, 4));
  const geom::Point q{0, 0};
  const auto numeric = ComputeQualificationProbabilities(Refs(objs), q);
  const auto mc = MonteCarloQualification(Refs(objs), q, 400000, &rng);
  ASSERT_GE(numeric.size(), 2u);
  for (const PnnAnswer& a : numeric) {
    double mc_p = 0.0;
    for (const PnnAnswer& m : mc) {
      if (m.id == a.id) mc_p = m.probability;
    }
    EXPECT_NEAR(a.probability, mc_p, 0.01) << "object " << a.id;
  }
}

TEST(QualificationTest, PointObjectsClassicNearestWins) {
  // All radii zero: the nearest point gets probability 1.
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {3, 0}, 0));
  objs.push_back(Gauss(1, {5, 0}, 0));
  objs.push_back(Gauss(2, {-4, 0}, 0));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, EmptyCandidates) {
  const auto answers = ComputeQualificationProbabilities({}, {0, 0});
  EXPECT_TRUE(answers.empty());
}

TEST(QualificationTest, AnswersSortedByProbability) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {7, 0}, 3));
  objs.push_back(Gauss(1, {9, 0}, 3));
  objs.push_back(Gauss(2, {11, 0}, 3));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].probability, answers[i].probability);
  }
}

TEST(QualificationTest, StatsTicker) {
  Stats stats;
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {3, 0}, 1));
  objs.push_back(Gauss(1, {4, 0}, 1));
  ComputeQualificationProbabilities(Refs(objs), {0, 0}, {}, &stats);
  EXPECT_EQ(stats.Get(Ticker::kQualificationIntegrations), 1u);
}

TEST(QualificationOracleTest, BitEqualToPerRingIntegration) {
  // Seeded candidate sets of 2-32 objects in three layouts: scattered,
  // coincident centers (every candidate shares one center, radii differ)
  // and collinear clusters; Gaussian and uniform pdfs, some point objects,
  // queries outside and inside regions. Ids and probability bits must
  // match the oracle integration exactly.
  Rng rng(1212);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 30));
    const int layout = trial % 3;
    const geom::Point shared{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    std::vector<UncertainObject> objs;
    for (int i = 0; i < n; ++i) {
      geom::Point c = shared;
      if (layout == 0) c = {rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
      if (layout == 2) c = {shared.x + 3.0 * (i % 4), shared.y - 1.5 * (i % 4)};
      const double r = i % 7 == 6 ? 0.0 : rng.Uniform(0.5, 12);
      objs.emplace_back(i, geom::Circle(c, r),
                        i % 2 == 0 ? RadialHistogramPdf::Gaussian(r)
                                   : RadialHistogramPdf::Uniform(r));
    }
    const geom::Point q = trial % 2 == 0
                              ? geom::Point{rng.Uniform(-30, 30), rng.Uniform(-30, 30)}
                              : objs[0].center();
    const auto got = ComputeQualificationProbabilities(Refs(objs), q);
    const auto want = oracle::Qualification(Refs(objs), q);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t a = 0; a < got.size(); ++a) {
      EXPECT_EQ(got[a].id, want[a].id) << "trial " << trial << " answer " << a;
      EXPECT_EQ(std::memcmp(&got[a].probability, &want[a].probability, sizeof(double)),
                0)
          << "trial " << trial << " answer " << a;
    }
  }
}

TEST(MonteCarloTest, SamplePositionsInsideRegion) {
  Rng rng(5);
  const auto obj = Gauss(0, {10, 10}, 7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(geom::Distance(SamplePosition(obj, &rng), obj.center()),
              7.0 + 1e-9);
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace uvd
