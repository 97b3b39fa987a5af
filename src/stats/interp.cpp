#include "stats/interp.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lad {

InterpTable::InterpTable(const std::function<double(double)>& f, double lo,
                         double hi, int omega)
    : lo_(lo), hi_(hi) {
  LAD_REQUIRE_MSG(hi > lo, "interpolation range is empty");
  LAD_REQUIRE_MSG(omega >= 1, "need at least one sub-range");
  values_.resize(static_cast<std::size_t>(omega) + 1);
  const double step = (hi - lo) / omega;
  for (int i = 0; i <= omega; ++i) {
    values_[static_cast<std::size_t>(i)] = f(lo + step * i);
  }
  inv_step_ = omega / (hi - lo);
}

InterpTable::InterpTable(std::vector<double> values, double lo, double hi)
    : lo_(lo), hi_(hi), values_(std::move(values)) {
  LAD_REQUIRE_MSG(hi > lo, "interpolation range is empty");
  LAD_REQUIRE_MSG(values_.size() >= 2, "need at least two sample points");
  inv_step_ = static_cast<double>(values_.size() - 1) / (hi - lo);
}

std::vector<double> InterpTable::probe_points(int probes) const {
  LAD_REQUIRE_MSG(probes > 0, "need at least one probe");
  std::vector<double> xs(static_cast<std::size_t>(probes));
  for (int i = 0; i < probes; ++i) {
    xs[static_cast<std::size_t>(i)] = lo_ + (hi_ - lo_) * (i + 0.5) / probes;
  }
  return xs;
}

double InterpTable::max_abs_error(const std::function<double(double)>& f,
                                  int probes) const {
  std::vector<double> exact;
  for (double x : probe_points(probes)) exact.push_back(f(x));
  return max_abs_error(exact);
}

double InterpTable::max_abs_error(const std::vector<double>& exact) const {
  const std::vector<double> xs =
      probe_points(static_cast<int>(exact.size()));
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    worst = std::max(worst, std::abs((*this)(xs[i]) - exact[i]));
  }
  return worst;
}

}  // namespace lad
