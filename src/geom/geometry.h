// The disk geometry behind g(z): arc_half_angle is Theorem 1's cos^{-1}
// term, and circle-circle intersection area has a closed form we check the
// Theorem-1 integral against.
#pragma once

namespace lad {

/// Area of the intersection of two disks with centers distance d apart and
/// radii r1, r2.  Handles containment and disjoint cases exactly.
double circle_intersection_area(double d, double r1, double r2);

/// Half-angle subtended at the origin-circle of radius `ell` by a disk of
/// radius R centered at distance z: acos((ell^2 + z^2 - R^2) / (2 ell z)),
/// clamped into [0, pi] against floating-point noise.  This is exactly the
/// cos^{-1} term of the paper's Theorem 1.
double arc_half_angle(double ell, double z, double R);

}  // namespace lad
