// Uniform-grid linear interpolation table.
//
// Section 3.3: "we divide the range of z into omega equal-size sub-ranges,
// and store the g(z) values for these omega+1 dividing points into a table
// ... then it uses the interpolation".  This class is that table, reused
// for any sampled 1-D function.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace lad {

class InterpTable {
 public:
  /// Samples f at omega+1 equally spaced points on [lo, hi].
  InterpTable(const std::function<double(double)>& f, double lo, double hi,
              int omega);

  /// Builds from precomputed values (values.size() == omega + 1).
  InterpTable(std::vector<double> values, double lo, double hi);

  /// Piecewise-linear evaluation; clamps outside [lo, hi] to the endpoint
  /// values (g(z) tables saturate at the tails by construction).  Inline:
  /// the likelihood kernel calls it once per group per evaluation.
  double operator()(double x) const {
    if (x <= lo_) return values_.front();
    if (x >= hi_) return values_.back();
    const double pos = (x - lo_) * inv_step_;
    std::size_t i = static_cast<std::size_t>(pos);
    i = std::min(i, values_.size() - 2);
    const double frac = pos - static_cast<double>(i);
    return values_[i] + frac * (values_[i + 1] - values_[i]);
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int omega() const { return static_cast<int>(values_.size()) - 1; }
  const std::vector<double>& values() const { return values_; }

  /// The `probes` midpoint sample points max_abs_error compares at.
  std::vector<double> probe_points(int probes) const;

  /// Maximum absolute error against f over `probes` midpoint samples.
  double max_abs_error(const std::function<double(double)>& f,
                       int probes = 1000) const;

  /// The same against precomputed values, `exact[i]` being f at
  /// probe_points(exact.size())[i] (callers that memoise f's samples).
  double max_abs_error(const std::vector<double>& exact) const;

 private:
  double lo_, hi_, inv_step_;
  std::vector<double> values_;
};

}  // namespace lad
