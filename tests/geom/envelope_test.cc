// Tests for the radial lower envelope (exact UV-cell). The key property:
// a point is inside the envelope iff no constraining object strictly
// dominates the anchor there (the paper's Definition 1 via brute force).
#include "geom/envelope.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geom/circle.h"

namespace uvd {
namespace geom {
namespace {

constexpr double kDomainSize = 1000.0;

Box Domain() { return Box({0, 0}, {kDomainSize, kDomainSize}); }

/// Brute-force UV-cell membership: q in U_i iff for all j,
/// dist_min(O_i, q) <= dist_max(O_j, q).
bool BruteForceInCell(const Circle& anchor, const std::vector<Circle>& others,
                      const Point& q) {
  for (const Circle& o : others) {
    if (anchor.DistMin(q) > o.DistMax(q)) return false;
  }
  return true;
}

TEST(EnvelopeTest, FreshEnvelopeEqualsDomain) {
  const Point c{400, 300};
  RadialEnvelope env(c, Domain());
  // Area equals the domain area (Algorithm 1 Step 2: P_i <- D).
  EXPECT_NEAR(env.Area(), Domain().Area(), 1e-6 * Domain().Area());
  // All four walls own boundary.
  EXPECT_EQ(env.arcs().size(), 4u);
  EXPECT_TRUE(env.OwnerObjects().empty());
  // Rho hits the walls exactly.
  EXPECT_NEAR(env.RhoAt(0.0), kDomainSize - c.x, 1e-9);
  EXPECT_NEAR(env.RhoAt(M_PI), c.x, 1e-9);
  EXPECT_NEAR(env.RhoAt(M_PI / 2), kDomainSize - c.y, 1e-9);
  EXPECT_NEAR(env.RhoAt(-M_PI / 2), c.y, 1e-9);
}

TEST(EnvelopeTest, DomainCornersOnBoundary) {
  const Point c{500, 500};
  RadialEnvelope env(c, Domain());
  for (const Point& corner : Domain().Corners()) {
    EXPECT_TRUE(env.Contains(corner));
    const Vec2 d = corner - c;
    EXPECT_NEAR(env.RhoAt(d.Angle()), d.Norm(), 1e-6);
  }
  EXPECT_FALSE(env.Contains({kDomainSize + 1, 500}));
}

TEST(EnvelopeTest, VacuousConstraintIgnored) {
  const Circle anchor({500, 500}, 50);
  RadialEnvelope env(anchor.center, Domain());
  const Circle overlapping({520, 500}, 50);
  EXPECT_FALSE(env.Insert(RadialConstraint::ForObjects(anchor, overlapping, 7)));
  EXPECT_NEAR(env.Area(), Domain().Area(), 1e-6 * Domain().Area());
}

TEST(EnvelopeTest, SingleConstraintHalvesPointCell) {
  // Two points, symmetric: the cell is the half domain up to the bisector.
  const Circle anchor({250, 500}, 0);
  const Circle other({750, 500}, 0);
  RadialEnvelope env(anchor.center, Domain());
  EXPECT_TRUE(env.Insert(RadialConstraint::ForObjects(anchor, other, 1)));
  EXPECT_NEAR(env.Area(), Domain().Area() / 2, 1e-6 * Domain().Area());
  EXPECT_TRUE(env.Contains({499, 500}));
  EXPECT_FALSE(env.Contains({501, 500}));
  EXPECT_EQ(env.OwnerObjects(), std::vector<int>{1});
}

TEST(EnvelopeTest, InsertReportsWhetherRegionChanged) {
  const Circle anchor({200, 200}, 10);
  RadialEnvelope env(anchor.center, Domain());
  // A far object whose edge lies outside the domain does not change P_i.
  const Circle far_away({205, 200}, 10);  // overlapping -> vacuous
  EXPECT_FALSE(env.Insert(RadialConstraint::ForObjects(anchor, far_away, 3)));
  // A meaningful neighbor does.
  const Circle near_obj({400, 200}, 10);
  EXPECT_TRUE(env.Insert(RadialConstraint::ForObjects(anchor, near_obj, 4)));
}

TEST(EnvelopeTest, ContainmentMatchesBruteForceUniform) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const Circle anchor({rng.Uniform(100, 900), rng.Uniform(100, 900)},
                        rng.Uniform(0, 20));
    std::vector<Circle> others;
    RadialEnvelope env(anchor.center, Domain());
    for (int j = 0; j < 30; ++j) {
      const Circle o({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)},
                     rng.Uniform(0, 20));
      others.push_back(o);
      env.Insert(RadialConstraint::ForObjects(anchor, o, j));
    }
    for (int k = 0; k < 500; ++k) {
      const Point q{rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)};
      const bool expect = BruteForceInCell(anchor, others, q);
      // Skip points within a hair of the boundary to avoid tie flakiness.
      const Vec2 d = q - anchor.center;
      const double rho = env.RhoAt(d.Angle());
      if (std::isfinite(rho) && std::abs(d.Norm() - rho) < 1e-6) continue;
      EXPECT_EQ(env.Contains(q), expect)
          << "trial=" << trial << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(EnvelopeTest, OwnerObjectsAreExactlyTheBindingConstraints) {
  // Construct a case with a known redundant object: far behind a closer one
  // in the same direction.
  const Circle anchor({500, 500}, 10);
  RadialEnvelope env(anchor.center, Domain());
  env.Insert(RadialConstraint::ForObjects(anchor, Circle({600, 500}, 10), 1));
  env.Insert(RadialConstraint::ForObjects(anchor, Circle({990, 500}, 10), 2));
  const auto owners = env.OwnerObjects();
  EXPECT_EQ(owners, std::vector<int>{1});  // object 2's edge is occluded
}

TEST(EnvelopeTest, MaxVertexDistanceBoundsSampledBoundary) {
  Rng rng(77);
  const Circle anchor({300, 600}, 15);
  RadialEnvelope env(anchor.center, Domain());
  for (int j = 0; j < 25; ++j) {
    env.Insert(RadialConstraint::ForObjects(
        anchor,
        Circle({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)},
               rng.Uniform(0, 25)),
        j));
  }
  const double d = env.MaxVertexDistance();
  ASSERT_TRUE(std::isfinite(d));
  for (double theta = 0; theta < 2 * M_PI; theta += 1e-3) {
    EXPECT_LE(env.RhoAt(theta), d + 1e-6) << "theta=" << theta;
  }
}

TEST(EnvelopeTest, VerticesLieOnBoundary) {
  Rng rng(88);
  const Circle anchor({500, 400}, 10);
  RadialEnvelope env(anchor.center, Domain());
  for (int j = 0; j < 15; ++j) {
    env.Insert(RadialConstraint::ForObjects(
        anchor,
        Circle({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)}, 10.0), j));
  }
  for (const Point& v : env.Vertices()) {
    const Vec2 d = v - anchor.center;
    EXPECT_NEAR(env.RhoAt(d.Angle()), d.Norm(), 1e-5);
  }
}

TEST(EnvelopeTest, AreaMatchesMonteCarlo) {
  Rng rng(4242);
  const Circle anchor({400, 400}, 20);
  std::vector<Circle> others;
  RadialEnvelope env(anchor.center, Domain());
  for (int j = 0; j < 12; ++j) {
    const Circle o({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)}, 20.0);
    others.push_back(o);
    env.Insert(RadialConstraint::ForObjects(anchor, o, j));
  }
  const double area = env.Area();
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Point q{rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)};
    if (BruteForceInCell(anchor, others, q)) ++hits;
  }
  const double mc = Domain().Area() * hits / n;
  EXPECT_NEAR(area, mc, 0.02 * Domain().Area());
}

TEST(EnvelopeTest, ClassicVoronoiSpecialCase) {
  // All radii zero: the envelope is the Voronoi cell; point-in-cell equals
  // nearest-center checks.
  Rng rng(2020);
  const Point anchor{450, 450};
  std::vector<Point> sites;
  RadialEnvelope env(anchor, Domain());
  for (int j = 0; j < 20; ++j) {
    const Point s{rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)};
    sites.push_back(s);
    env.Insert(RadialConstraint::ForObjects(Circle(anchor, 0), Circle(s, 0), j));
  }
  for (int k = 0; k < 2000; ++k) {
    const Point q{rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)};
    double best = Distance(q, anchor);
    for (const Point& s : sites) best = std::min(best, Distance(q, s));
    const bool voronoi = Distance(q, anchor) <= best + 1e-9;
    if (std::abs(Distance(q, anchor) - best) < 1e-6) continue;  // tie region
    EXPECT_EQ(env.Contains(q), voronoi) << k;
  }
}

TEST(EnvelopeTest, StarShapedContainsAnchorSegments) {
  // Star-shapedness around the anchor center: if p is in the cell, so is
  // every point between the center and p.
  Rng rng(555);
  const Circle anchor({600, 300}, 12);
  RadialEnvelope env(anchor.center, Domain());
  for (int j = 0; j < 18; ++j) {
    env.Insert(RadialConstraint::ForObjects(
        anchor,
        Circle({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)}, 12.0), j));
  }
  for (int k = 0; k < 3000; ++k) {
    const Point q{rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)};
    if (!env.Contains(q)) continue;
    const double t = rng.Uniform(0, 1);
    const Point mid = anchor.center + (q - anchor.center) * t;
    EXPECT_TRUE(env.Contains(mid));
  }
}

TEST(EnvelopeTest, BoundingBoxCoversPolyline) {
  Rng rng(31337);
  const Circle anchor({500, 500}, 10);
  RadialEnvelope env(anchor.center, Domain());
  for (int j = 0; j < 10; ++j) {
    env.Insert(RadialConstraint::ForObjects(
        anchor,
        Circle({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)}, 10.0), j));
  }
  const Box bb = env.BoundingBox();
  for (const Point& p : env.ToPolyline(64)) {
    EXPECT_TRUE(bb.Contains(p) ||
                (std::abs(bb.MinDist(p)) < 1e-6));  // tolerance on edges
  }
}

TEST(EnvelopeTest, InsertionOrderIrrelevant) {
  // Paper Sec. III-B: the order of refining P_i does not matter.
  Rng rng(909);
  const Circle a({350, 650}, 10);
  std::vector<Circle> objs;
  for (int j = 0; j < 12; ++j) {
    objs.push_back(Circle({rng.Uniform(0, kDomainSize), rng.Uniform(0, kDomainSize)},
                          rng.Uniform(0, 15)));
  }
  RadialEnvelope fwd(a.center, Domain());
  for (size_t j = 0; j < objs.size(); ++j) {
    fwd.Insert(RadialConstraint::ForObjects(a, objs[j], static_cast<int>(j)));
  }
  RadialEnvelope bwd(a.center, Domain());
  for (size_t j = objs.size(); j-- > 0;) {
    bwd.Insert(RadialConstraint::ForObjects(a, objs[j], static_cast<int>(j)));
  }
  EXPECT_EQ(fwd.OwnerObjects(), bwd.OwnerObjects());
  EXPECT_NEAR(fwd.Area(), bwd.Area(), 1e-6 * Domain().Area());
  for (double theta = 0.01; theta < 2 * M_PI; theta += 0.037) {
    EXPECT_NEAR(fwd.RhoAt(theta), bwd.RhoAt(theta), 1e-6)
        << "theta=" << theta;
  }
}

TEST(EnvelopeTest, StatsCountsInsertions) {
  Stats stats;
  RadialEnvelope env({500, 500}, Domain(), &stats);
  EXPECT_EQ(stats.Get(Ticker::kEnvelopeInsertions), 4u);  // four walls
  env.Insert(RadialConstraint::ForObjects(Circle({500, 500}, 5),
                                          Circle({700, 500}, 5), 1));
  EXPECT_EQ(stats.Get(Ticker::kEnvelopeInsertions), 5u);
}

}  // namespace
}  // namespace geom
}  // namespace uvd
