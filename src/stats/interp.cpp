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

double InterpTable::max_abs_error(const std::function<double(double)>& f,
                                  int probes) const {
  LAD_REQUIRE_MSG(probes > 0, "need at least one probe");
  double worst = 0.0;
  for (int i = 0; i < probes; ++i) {
    const double x = lo_ + (hi_ - lo_) * (i + 0.5) / probes;
    worst = std::max(worst, std::abs((*this)(x) - f(x)));
  }
  return worst;
}

}  // namespace lad
