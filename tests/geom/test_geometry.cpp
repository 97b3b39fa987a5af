#include "geom/geometry.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.h"

namespace lad {
namespace {

TEST(CircleIntersectionArea, DisjointAndContainment) {
  EXPECT_DOUBLE_EQ(circle_intersection_area(10.0, 3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(circle_intersection_area(6.0, 3.0, 3.0), 0.0);  // tangent
  // Full containment: small circle inside big one.
  EXPECT_NEAR(circle_intersection_area(1.0, 10.0, 2.0), M_PI * 4.0, 1e-12);
  EXPECT_NEAR(circle_intersection_area(0.0, 5.0, 5.0), M_PI * 25.0, 1e-12);
}

TEST(CircleIntersectionArea, HalfOverlapSymmetry) {
  // Equal circles at distance d: the lens area has the classic closed form
  // 2 r^2 acos(d/2r) - d/2 sqrt(4r^2 - d^2).
  const double r = 2.0, d = 1.5;
  const double expected =
      2 * r * r * std::acos(d / (2 * r)) - d / 2 * std::sqrt(4 * r * r - d * d);
  EXPECT_NEAR(circle_intersection_area(d, r, r), expected, 1e-12);
  // Argument order must not matter.
  EXPECT_DOUBLE_EQ(circle_intersection_area(d, 2.0, 3.0),
                   circle_intersection_area(d, 3.0, 2.0));
}

TEST(CircleIntersectionArea, ZeroRadius) {
  EXPECT_DOUBLE_EQ(circle_intersection_area(1.0, 0.0, 5.0), 0.0);
}

TEST(CircleIntersectionArea, RejectsNegativeArguments) {
  EXPECT_THROW(circle_intersection_area(-1, 1, 1), AssertionError);
  EXPECT_THROW(circle_intersection_area(1, -1, 1), AssertionError);
}

TEST(ArcHalfAngle, KnownValues) {
  // ell = z, R = ell sqrt(2): the half-angle is pi/2... cos = (2z^2-2z^2)/(2z^2)=0.
  EXPECT_NEAR(arc_half_angle(1.0, 1.0, std::sqrt(2.0)), M_PI / 2, 1e-12);
  // Circle fully inside the disk: angle saturates at pi.
  EXPECT_NEAR(arc_half_angle(0.5, 1.0, 10.0), M_PI, 1e-12);
  // Circle fully outside: angle 0.
  EXPECT_NEAR(arc_half_angle(10.0, 10.0, 1e-9), 0.0, 1e-4);
}

TEST(ArcHalfAngle, ClampsRoundoff) {
  // Arguments that put the cosine microscopically outside [-1, 1] must not
  // produce NaN.
  const double v = arc_half_angle(1.0, 2.0, 1.0);  // boundary case: cos = 1
  EXPECT_FALSE(std::isnan(v));
  EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(ArcHalfAngle, RequiresPositiveRadii) {
  EXPECT_THROW(arc_half_angle(0.0, 1.0, 1.0), AssertionError);
  EXPECT_THROW(arc_half_angle(1.0, 0.0, 1.0), AssertionError);
}

}  // namespace
}  // namespace lad
