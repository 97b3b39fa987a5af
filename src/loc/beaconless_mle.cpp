#include "loc/beaconless_mle.h"

#include <algorithm>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/likelihood.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/weighted_centroid.h"
#include "util/assert.h"

namespace lad {

BeaconlessMleLocalizer::BeaconlessMleLocalizer(const DeploymentModel& model,
                                               const GzTable& gz,
                                               double tol_meters)
    : model_(&model), likelihood_(model, gz), tol_meters_(tol_meters) {
  LAD_REQUIRE_MSG(tol_meters > 0, "tolerance must be positive");
}

double BeaconlessMleLocalizer::log_likelihood(const Observation& obs,
                                              Vec2 theta) const {
  return likelihood_.bind(obs)(theta);
}

Vec2 BeaconlessMleLocalizer::estimate(const Observation& obs) const {
  BinomialLikelihood::Bound loglik = likelihood_.bind(obs);
  const DeploymentConfig& cfg = model_->config();
  std::vector<SearchResult> scored;
  const SearchResult found = pattern_search(
      cfg.field(), weighted_centroid_estimate(*model_, obs),
      cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny)),
      tol_meters_, [&](Vec2 theta) { return loglik(theta); }, scored);
  return found.at;
}

}  // namespace lad
