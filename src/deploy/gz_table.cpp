#include "deploy/gz_table.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "stats/interp.h"
#include "util/assert.h"
#include "util/latched_cache.h"

namespace lad {

namespace {

std::string bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return std::to_string(b);
}

/// A memo key prefix: the exact bit patterns of (R, sigma, tol).
std::string params_key(const GzParams& params) {
  return bits(params.radio_range) + ':' + bits(params.sigma) + ':' +
         bits(params.tol) + ':';
}

/// The process-wide memo behind every GzTable.  Checks omega before
/// anything is sampled, so a rejected resolution never reaches the memo.
const InterpTable& sampled_table(const GzParams& params, int omega) {
  LAD_REQUIRE_MSG(omega >= kMinGzOmega, "g(z) table omega must be >= "
                                            << kMinGzOmega << ", got "
                                            << omega);
  static LatchedCache<InterpTable> memo;
  const std::string key = params_key(params) + std::to_string(omega);
  return memo.get(key, [&params, omega] {
    return std::make_unique<InterpTable>(
        [&params](double z) { return gz_exact(z, params); }, 0.0,
        gz_support_radius(params), omega);
  });
}

/// gz_exact at `table`'s error probes, memoised for the process like the
/// rows: every omega's accuracy row probes the same points, which depend
/// only on (R, sigma, tol) through the support radius, and on `probes`.
const std::vector<double>& exact_probes(const GzParams& params,
                                        const InterpTable& table, int probes) {
  static LatchedCache<std::vector<double>> memo;
  const std::string key = params_key(params) + std::to_string(probes);
  return memo.get(key, [&params, &table, probes] {
    auto exact = std::make_unique<std::vector<double>>();
    for (double z : table.probe_points(probes)) {
      exact->push_back(gz_exact(z, params));
    }
    return exact;
  });
}

}  // namespace

GzTable::GzTable(const GzParams& params, int omega)
    : params_(params), table_(sampled_table(params, omega)) {}

double GzTable::max_abs_error(int probes) const {
  return table_.max_abs_error(exact_probes(params_, table_, probes));
}

}  // namespace lad
