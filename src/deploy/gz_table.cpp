#include "deploy/gz_table.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

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

/// The process-wide memo behind every GzTable.  Checks omega before
/// anything is sampled, so a rejected resolution never reaches the memo.
const InterpTable& sampled_table(const GzParams& params, int omega) {
  LAD_REQUIRE_MSG(omega >= kMinGzOmega, "g(z) table omega must be >= "
                                            << kMinGzOmega << ", got "
                                            << omega);
  static LatchedCache<InterpTable> memo;
  const std::string key = bits(params.radio_range) + ':' +
                          bits(params.sigma) + ':' + bits(params.tol) + ':' +
                          std::to_string(omega);
  return memo.get(key, [&params, omega] {
    return std::make_unique<InterpTable>(
        [&params](double z) { return gz_exact(z, params); }, 0.0,
        gz_support_radius(params), omega);
  });
}

}  // namespace

GzTable::GzTable(const GzParams& params, int omega)
    : params_(params), table_(sampled_table(params, omega)) {}

double GzTable::max_abs_error(int probes) const {
  return table_.max_abs_error(
      [this](double z) { return gz_exact(z, params_); }, probes);
}

}  // namespace lad
