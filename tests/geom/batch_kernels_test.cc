// Unit tests for the SIMD batch kernels (geom/batch/): every kernel is
// checked bitwise against a straight scalar re-implementation of the loop
// it replaces, across block boundaries (empty input, exactly one block,
// tail lanes) and degenerate inputs (empty hull, vacuous constraints).
#include "geom/batch/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/uv_edge.h"
#include "geom/box.h"
#include "geom/envelope.h"

namespace uvd {
namespace geom {
namespace batch {
namespace {

std::vector<Circle> RandomCircles(Rng* rng, size_t n, double span,
                                  double max_radius) {
  std::vector<Circle> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({{rng->Uniform(0.0, span), rng->Uniform(0.0, span)},
                   rng->Uniform(0.0, max_radius)});
  }
  return out;
}

TEST(CircleSoATest, AssignMirrorsInput) {
  Rng rng(1);
  const auto circles = RandomCircles(&rng, 13, 100.0, 3.0);
  CircleSoA soa;
  soa.Assign(circles);
  ASSERT_EQ(soa.size(), circles.size());
  for (size_t i = 0; i < circles.size(); ++i) {
    EXPECT_EQ(soa.xs[i], circles[i].center.x);
    EXPECT_EQ(soa.ys[i], circles[i].center.y);
    EXPECT_EQ(soa.rs[i], circles[i].radius);
  }
  soa.Clear();
  EXPECT_TRUE(soa.empty());
}

TEST(AnyHullCircleContainsTest, MatchesScalarAcrossSizes) {
  Rng rng(7);
  // Cover the empty block, sub-block tails, exact block multiples and
  // several full blocks with a tail.
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 16u, 19u, 64u, 101u}) {
    for (size_t hull_size : {1u, 2u, 5u}) {
      std::vector<double> xs(n), ys(n);
      for (size_t i = 0; i < n; ++i) {
        xs[i] = rng.Uniform(0.0, 100.0);
        ys[i] = rng.Uniform(0.0, 100.0);
      }
      std::vector<Point> hull(hull_size);
      std::vector<double> hull_dist2(hull_size);
      for (size_t m = 0; m < hull_size; ++m) {
        hull[m] = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
        const double d = rng.Uniform(5.0, 40.0);
        hull_dist2[m] = d * d;
      }
      std::vector<uint8_t> keep(n, 2);  // poison: kernel must write all n
      AnyHullCircleContains(xs.data(), ys.data(), n, hull.data(),
                            hull_dist2.data(), hull_size, keep.data());
      for (size_t i = 0; i < n; ++i) {
        uint8_t expected = 0;
        for (size_t m = 0; m < hull_size; ++m) {
          const double dx = xs[i] - hull[m].x;
          const double dy = ys[i] - hull[m].y;
          if (dx * dx + dy * dy <= hull_dist2[m]) expected = 1;
        }
        ASSERT_EQ(keep[i], expected) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(AnyHullCircleContainsTest, DegenerateHullKeepsNothing) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  std::vector<double> ys = {1.0, 2.0, 3.0};
  std::vector<uint8_t> keep(3, 1);
  AnyHullCircleContains(xs.data(), ys.data(), 3, nullptr, nullptr, 0,
                        keep.data());
  for (uint8_t k : keep) EXPECT_EQ(k, 0);
}

TEST(FindContainingOutsideRegionTest, MatchesScalarEdgeScan) {
  Rng rng(23);
  const Circle anchor{{50.0, 50.0}, 1.0};
  for (size_t n : {0u, 1u, 5u, 8u, 9u, 24u, 40u, 77u}) {
    const auto candidates = RandomCircles(&rng, n, 100.0, 2.0);
    CircleSoA soa;
    soa.Assign(candidates);
    // Small boxes near the anchor are plausibly contained in some outside
    // region; large ones are not — exercise both.
    for (double half : {0.5, 4.0, 30.0}) {
      const Point c{rng.Uniform(10.0, 90.0), rng.Uniform(10.0, 90.0)};
      const Box box({c.x - half, c.y - half}, {c.x + half, c.y + half});
      const auto corners = box.Corners();
      double cx[4], cy[4], cdmin[4];
      for (int k = 0; k < 4; ++k) {
        cx[k] = corners[static_cast<size_t>(k)].x;
        cy[k] = corners[static_cast<size_t>(k)].y;
        cdmin[k] = anchor.DistMin(corners[static_cast<size_t>(k)]);
      }
      size_t evaluated = 0;
      const ptrdiff_t got =
          FindContainingOutsideRegion(soa, cx, cy, cdmin, &evaluated);

      // Scalar oracle: the first candidate whose outside region contains
      // the box, via the exact UVEdge 4-point test.
      ptrdiff_t expected = -1;
      for (size_t j = 0; j < n; ++j) {
        const core::UVEdge edge(anchor, candidates[j], static_cast<int>(j));
        if (edge.RegionInOutside(box)) {
          expected = static_cast<ptrdiff_t>(j);
          break;
        }
      }
      ASSERT_EQ(got, expected) << "n=" << n << " half=" << half;
      if (got >= 0) {
        EXPECT_GE(evaluated, static_cast<size_t>(got) + 1);
      } else {
        EXPECT_EQ(evaluated, n);
      }
      EXPECT_LE(evaluated, n);
    }
  }
}

TEST(ConstraintPrefilterTest, MinRhoIsALowerBoundAndVacuousMatches) {
  Rng rng(31);
  const Circle anchor{{500.0, 500.0}, rng.Uniform(0.0, 5.0)};
  const auto others = RandomCircles(&rng, 64, 1000.0, 8.0);
  ConstraintPrefilter pre;
  BuildConstraintPrefilter(anchor, others.data(), others.size(), &pre);
  ASSERT_EQ(pre.size(), others.size());
  for (size_t j = 0; j < others.size(); ++j) {
    const RadialConstraint c =
        RadialConstraint::ForObjects(anchor, others[j], static_cast<int>(j));
    EXPECT_EQ(pre.vacuous[j] != 0, c.IsVacuous()) << j;
    if (c.IsVacuous()) continue;
    // min_rho must lower-bound rho over a dense angle sweep, with at most
    // a few-ulp violation (the 1e-9 slack covers far more).
    double min_seen = std::numeric_limits<double>::infinity();
    for (int k = 0; k < 4096; ++k) {
      const double theta = 2.0 * M_PI * k / 4096.0;
      min_seen = std::min(min_seen, c.RhoAtAngle(theta));
    }
    EXPECT_GE(min_seen, pre.min_rho[j] * (1.0 - 1e-12)) << j;
  }
}

TEST(ConstraintPrefilterTest, SkippedInsertionsAreProvablyNoOps) {
  // Build an envelope from near constraints, then verify every constraint
  // the prefilter would skip is indeed rejected by RadialEnvelope::Insert.
  Rng rng(47);
  const Box domain({0.0, 0.0}, {1000.0, 1000.0});
  const Circle anchor{{480.0, 520.0}, 2.0};
  RadialEnvelope env(anchor.center, domain);
  const auto near = RandomCircles(&rng, 24, 200.0, 3.0);
  for (size_t j = 0; j < near.size(); ++j) {
    Circle o = near[j];
    o.center += Vec2{400.0, 400.0};  // ring around the anchor
    env.Insert(RadialConstraint::ForObjects(anchor, o, static_cast<int>(j)));
  }
  const double max_d = env.MaxVertexDistance();
  ASSERT_TRUE(std::isfinite(max_d));
  const auto far = RandomCircles(&rng, 64, 1000.0, 3.0);
  ConstraintPrefilter pre;
  BuildConstraintPrefilter(anchor, far.data(), far.size(), &pre);
  for (size_t j = 0; j < far.size(); ++j) {
    if (pre.vacuous[j] || !PrefilterSkips(pre.min_rho[j], max_d)) continue;
    RadialEnvelope copy = env;
    EXPECT_FALSE(copy.Insert(RadialConstraint::ForObjects(
        anchor, far[j], 1000 + static_cast<int>(j))))
        << j;
  }
}

TEST(KernelModeTest, NamesAndSimdReporting) {
  EXPECT_STREQ(KernelModeName(KernelMode::kScalar), "scalar");
  EXPECT_STREQ(KernelModeName(KernelMode::kBatch), "batch");
  // SimdIsa always returns a non-empty tag; consistency with SimdEnabled.
  const char* isa = SimdIsa();
  ASSERT_NE(isa, nullptr);
  if (SimdEnabled()) {
    EXPECT_STRNE(isa, "blocks");
  } else {
    EXPECT_STREQ(isa, "blocks");
  }
}

}  // namespace
}  // namespace batch
}  // namespace geom
}  // namespace uvd
