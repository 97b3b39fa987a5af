#include "geom/geometry.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lad {

double circle_intersection_area(double d, double r1, double r2) {
  LAD_REQUIRE_MSG(d >= 0 && r1 >= 0 && r2 >= 0,
                  "negative geometry arguments");
  if (r1 == 0.0 || r2 == 0.0) return 0.0;
  if (d >= r1 + r2) return 0.0;  // disjoint
  const double rmin = std::min(r1, r2);
  if (d <= std::abs(r1 - r2)) return M_PI * rmin * rmin;  // containment
  // Standard lens area.
  const double a1 =
      std::acos(std::clamp((d * d + r1 * r1 - r2 * r2) / (2 * d * r1), -1.0, 1.0));
  const double a2 =
      std::acos(std::clamp((d * d + r2 * r2 - r1 * r1) / (2 * d * r2), -1.0, 1.0));
  const double tri =
      0.5 * std::sqrt(std::max(0.0, (-d + r1 + r2) * (d + r1 - r2) *
                                        (d - r1 + r2) * (d + r1 + r2)));
  return r1 * r1 * a1 + r2 * r2 * a2 - tri;
}

double arc_half_angle(double ell, double z, double R) {
  LAD_REQUIRE_MSG(ell > 0 && z > 0, "arc_half_angle needs positive radii");
  const double c = (ell * ell + z * z - R * R) / (2.0 * ell * z);
  return std::acos(std::clamp(c, -1.0, 1.0));
}

}  // namespace lad
