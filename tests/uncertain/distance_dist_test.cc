// Tests for the distance CDF used by the probability integration.
#include "uncertain/distance_dist.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "uncertain/monte_carlo.h"
#include "qualification_oracle.h"

namespace uvd {
namespace uncertain {
namespace {

UncertainObject MakeObj(int id, geom::Point c, double r,
                        PdfKind kind = PdfKind::kGaussian) {
  if (kind == PdfKind::kGaussian) {
    return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Gaussian(r));
  }
  return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Uniform(r));
}

TEST(DistanceDistTest, SupportBounds) {
  const auto obj = MakeObj(0, {10, 0}, 3);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 7.0);
  EXPECT_DOUBLE_EQ(dist.upper(), 13.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(6.9), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(13.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(20.0), 1.0);
}

TEST(DistanceDistTest, MonotoneNondecreasing) {
  const auto obj = MakeObj(0, {5, 5}, 4);
  for (const geom::Point q : {geom::Point{0, 0}, geom::Point{5, 5}, geom::Point{6, 4}}) {
    DistanceDistribution dist(obj, q);
    double prev = 0.0;
    for (double d = 0.0; d <= dist.upper() + 1.0; d += 0.05) {
      const double c = dist.Cdf(d);
      EXPECT_GE(c, prev - 1e-12) << "q=(" << q.x << "," << q.y << ") d=" << d;
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
  }
}

TEST(DistanceDistTest, QueryInsideRegion) {
  // Query at the region center: distance distribution equals the radial CDF.
  const auto obj = MakeObj(0, {0, 0}, 10, PdfKind::kUniform);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 0.0);
  for (double d = 1.0; d < 10.0; d += 1.0) {
    EXPECT_NEAR(dist.Cdf(d), (d * d) / 100.0, 1e-9) << d;
  }
}

TEST(DistanceDistTest, PointObjectIsStep) {
  const auto obj = MakeObj(0, {3, 4}, 0);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 5.0);
  EXPECT_DOUBLE_EQ(dist.upper(), 5.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(4.999), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(5.0), 1.0);
}

TEST(DistanceDistTest, MatchesMonteCarloGaussian) {
  Rng rng(99);
  const auto obj = MakeObj(0, {20, 0}, 8);
  const geom::Point q{0, 0};
  DistanceDistribution dist(obj, q);
  const int n = 200000;
  for (double d : {14.0, 18.0, 20.0, 22.0, 26.0}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (geom::Distance(SamplePosition(obj, &rng), q) <= d) ++hits;
    }
    EXPECT_NEAR(dist.Cdf(d), static_cast<double>(hits) / n, 0.01) << "d=" << d;
  }
}

TEST(DistanceDistTest, MatchesMonteCarloQueryInsideUniform) {
  Rng rng(123);
  const auto obj = MakeObj(0, {0, 0}, 6, PdfKind::kUniform);
  const geom::Point q{2, 1};  // inside the region
  DistanceDistribution dist(obj, q);
  const int n = 200000;
  for (double d : {1.0, 2.5, 4.0, 6.0, 8.0}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (geom::Distance(SamplePosition(obj, &rng), q) <= d) ++hits;
    }
    EXPECT_NEAR(dist.Cdf(d), static_cast<double>(hits) / n, 0.01) << "d=" << d;
  }
}

// The shared-boundary kernel must equal the per-ring oracle bit for bit at
// every d: a dense sweep over the support plus each tangency
// d = center_dist +- r_b of every ring boundary r_b.
void ExpectBitEqualToOracle(const UncertainObject& obj, const geom::Point& q) {
  const DistanceDistribution dist(obj, q);
  const double center_dist = geom::Distance(obj.center(), q);
  std::vector<double> ds;
  const double span = dist.upper() - dist.lower();
  for (int k = -4; k <= 404; ++k) ds.push_back(dist.lower() + span * k / 400.0);
  const RadialHistogramPdf& pdf = obj.pdf();
  for (int b = 0; b <= pdf.num_bars(); ++b) {
    const double r_b = b == 0 ? 0.0 : pdf.RingOuter(b - 1);
    ds.push_back(center_dist + r_b);
    ds.push_back(center_dist - r_b);
    ds.push_back(r_b - center_dist);
  }
  for (const double d : ds) {
    const double got = dist.Cdf(d);
    const double want = oracle::Cdf(obj, q, d);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "q=(" << q.x << "," << q.y << ") r=" << obj.radius() << " d=" << d
        << " got " << got << " want " << want;
  }
}

TEST(DistanceDistOracleTest, QueryPositionsRelativeToRegion) {
  for (const PdfKind kind : {PdfKind::kGaussian, PdfKind::kUniform}) {
    const auto obj = MakeObj(0, {4, -3}, 5, kind);
    ExpectBitEqualToOracle(obj, {4, -3});    // at the center
    ExpectBitEqualToOracle(obj, {5.5, -2});  // strictly inside
    ExpectBitEqualToOracle(obj, {9, -3});    // on the boundary
    ExpectBitEqualToOracle(obj, {4, 2});     // on the boundary
    ExpectBitEqualToOracle(obj, {-7, 8});    // outside
  }
}

TEST(DistanceDistOracleTest, QueryOnRingBoundaries) {
  // q at distance r_b from the center: every ring boundary passes through q.
  const auto obj = MakeObj(0, {0, 0}, 10);
  for (int b = 1; b < kDefaultNumBars; ++b) {
    ExpectBitEqualToOracle(obj, {obj.pdf().RingOuter(b - 1), 0});
  }
}

TEST(DistanceDistOracleTest, PointObject) {
  const auto obj = MakeObj(0, {3, 4}, 0);
  ExpectBitEqualToOracle(obj, {0, 0});
  ExpectBitEqualToOracle(obj, {3, 4});
}

TEST(DistanceDistOracleTest, ZeroMassRings) {
  // Zero-mass bars break the chain of shared boundaries: the first, a
  // middle and the last ring, alone and together.
  const std::vector<std::vector<double>> bar_sets = {
      {0.0, 0.25, 0.25, 0.25, 0.25},
      {0.25, 0.25, 0.0, 0.25, 0.25},
      {0.25, 0.25, 0.25, 0.25, 0.0},
      {0.0, 0.5, 0.0, 0.5, 0.0},
      {0.0, 0.0, 1.0, 0.0, 0.0},
  };
  for (const auto& bars : bar_sets) {
    const UncertainObject obj(0, geom::Circle({2, 2}, 6),
                              RadialHistogramPdf(PdfKind::kGaussian, 6, bars));
    for (const geom::Point q : {geom::Point{2, 2}, geom::Point{3, 1},
                                geom::Point{8, 2}, geom::Point{-9, 5}}) {
      ExpectBitEqualToOracle(obj, q);
    }
  }
}

TEST(DistanceDistOracleTest, ExtremeRadiusRatios) {
  // 10^4:1 between the region radius and the query distance, both ways.
  for (const PdfKind kind : {PdfKind::kGaussian, PdfKind::kUniform}) {
    ExpectBitEqualToOracle(MakeObj(0, {0, 0}, 1e4, kind), {1, 0});
    ExpectBitEqualToOracle(MakeObj(0, {0, 0}, 1e4, kind), {0.5, 0.5});
    ExpectBitEqualToOracle(MakeObj(0, {1e4, 0}, 1, kind), {0, 0});
    ExpectBitEqualToOracle(MakeObj(0, {1e4, 0}, 1e4, kind), {0, 0});
  }
}

TEST(DistanceDistOracleTest, SeededRandomObjects) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const PdfKind kind = trial % 2 == 0 ? PdfKind::kGaussian : PdfKind::kUniform;
    const auto obj = MakeObj(0, {rng.Uniform(-20, 20), rng.Uniform(-20, 20)},
                             rng.Uniform(0.1, 15), kind);
    ExpectBitEqualToOracle(obj, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)});
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace uvd
