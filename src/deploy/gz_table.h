// Section 3.3's table-lookup for g(z): "we precompute g(z), and store the
// values in a table ... divide the range of z into omega equal-size
// sub-ranges ... uses the interpolation ... takes only constant time."
//
// GzTable precomputes omega+1 points of gz_exact on [0, support_radius] and
// interpolates linearly.  Past the support radius g is numerically zero.
//
// The sampled row is a pure function of (R, sigma, tol, omega), so it is
// sampled once per process: the constructor copies it out of a
// process-lifetime memo keyed by the exact bit patterns of those four
// values (a LatchedCache, so concurrent constructors of one key sample it
// once and different keys never wait on each other).  Entries are never
// evicted; the memo holds one (omega+1)-double row per distinct key seen
// by the process, ~2 KB at the defaults.  A build that throws is not
// memoised.  max_abs_error's exact integrals are memoised the same way,
// keyed by (R, sigma, tol, probes): ~16 KB per key at 2000 probes.
#pragma once

#include <memory>

#include "deploy/gz.h"
#include "geom/vec2.h"
#include "stats/interp.h"

namespace lad {

/// The coarsest table resolution anything accepts: GzTable, bundle
/// validation and the scenario parser all check omega against it.
inline constexpr int kMinGzOmega = 8;

class GzTable {
 public:
  /// Default omega follows the paper's observation that "omega does not
  /// need to be very large"; 256 gives max abs error ~1e-5 for the paper's
  /// parameters (see bench/tab_gz_accuracy).
  explicit GzTable(const GzParams& params, int omega = 256);

  /// g at scalar distance z (constant-time lookup).  This and at() are
  /// inline so the likelihood kernel's group loop pays no call for them.
  double operator()(double z) const {
    if (z >= table_.hi()) return 0.0;
    return table_(z < 0 ? 0.0 : z);
  }

  /// g_i(theta): probability that a node of the group deployed at
  /// `deployment_point` lands in the radio neighborhood of `theta`.
  double at(Vec2 theta, Vec2 deployment_point) const {
    return (*this)(distance(theta, deployment_point));
  }

  const GzParams& params() const { return params_; }
  int omega() const { return table_.omega(); }
  double support_radius() const { return table_.hi(); }

  /// Max absolute interpolation error vs the exact integral (for tests and
  /// the accuracy ablation).
  double max_abs_error(int probes = 2000) const;

 private:
  GzParams params_;
  InterpTable table_;
};

}  // namespace lad
