#include "deploy/deployment_model.h"

#include <cmath>
#include <limits>

#include "deploy/config.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/special.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace lad {

const char* deployment_shape_name(DeploymentShape shape) {
  switch (shape) {
    case DeploymentShape::kGrid: return "grid";
    case DeploymentShape::kHex: return "hex";
    case DeploymentShape::kRandom: return "random";
  }
  return "?";
}

DeploymentShape deployment_shape_from_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "grid") return DeploymentShape::kGrid;
  if (n == "hex" || n == "hexagonal") return DeploymentShape::kHex;
  if (n == "random" || n == "random-known") return DeploymentShape::kRandom;
  LAD_REQUIRE_MSG(false, "unknown deployment shape: " << name);
  return DeploymentShape::kGrid;  // unreachable
}

DeploymentModel::DeploymentModel(const DeploymentConfig& config)
    : config_(config) {
  config_.validate();
  const double dx = config_.field_side / config_.grid_nx;
  const double dy = config_.field_side / config_.grid_ny;
  points_.reserve(static_cast<std::size_t>(config_.num_groups()));
  // Row-major: group index i = row * nx + col, matching Figure 1's layout.
  for (int row = 0; row < config_.grid_ny; ++row) {
    for (int col = 0; col < config_.grid_nx; ++col) {
      points_.push_back({(col + 0.5) * dx, (row + 0.5) * dy});
    }
  }
}

DeploymentModel::DeploymentModel(const DeploymentConfig& config,
                                 std::vector<Vec2> points)
    : config_(config), points_(std::move(points)) {
  config_.validate();
  LAD_REQUIRE_MSG(!points_.empty(), "need at least one deployment point");
}

DeploymentModel DeploymentModel::hex(const DeploymentConfig& config) {
  config.validate();
  const double pitch = config.field_side / config.grid_nx;
  const double row_h = pitch * std::sqrt(3.0) / 2.0;
  std::vector<Vec2> points;
  int row = 0;
  for (double y = row_h / 2.0; y < config.field_side; y += row_h, ++row) {
    const double offset = (row % 2 == 0) ? pitch / 2.0 : pitch;
    for (double x = offset; x < config.field_side; x += pitch) {
      points.push_back({x, y});
    }
  }
  return DeploymentModel(config, std::move(points));
}

DeploymentModel DeploymentModel::random(const DeploymentConfig& config,
                                        Rng& rng) {
  config.validate();
  std::vector<Vec2> points;
  points.reserve(static_cast<std::size_t>(config.num_groups()));
  for (int i = 0; i < config.num_groups(); ++i) {
    points.push_back({rng.uniform(0.0, config.field_side),
                      rng.uniform(0.0, config.field_side)});
  }
  return DeploymentModel(config, std::move(points));
}

DeploymentModel DeploymentModel::make(DeploymentShape shape,
                                      const DeploymentConfig& config,
                                      std::uint64_t seed) {
  switch (shape) {
    case DeploymentShape::kGrid: return DeploymentModel(config);
    case DeploymentShape::kHex: return hex(config);
    case DeploymentShape::kRandom: {
      // lad-lint: allow(rng-construct) -- the deployment's root stream;
      // re-keying through Rng::stream would change every golden CSV.
      Rng rng(seed);
      return random(config, rng);
    }
  }
  LAD_REQUIRE_MSG(false, "invalid deployment shape");
  return DeploymentModel(config);  // unreachable
}

Vec2 DeploymentModel::deployment_point(int group) const {
  LAD_REQUIRE_MSG(group >= 0 && group < num_groups(),
                  "group " << group << " out of range");
  return points_[static_cast<std::size_t>(group)];
}

int DeploymentModel::nearest_group(Vec2 p) const {
  int best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (int g = 0; g < num_groups(); ++g) {
    const double d2 = distance2(p, points_[static_cast<std::size_t>(g)]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = g;
    }
  }
  return best;
}

Vec2 DeploymentModel::sample_resident_point(int group, Rng& rng) const {
  const Vec2 dp = deployment_point(group);
  Vec2 p{dp.x + rng.normal(0.0, config_.sigma),
         dp.y + rng.normal(0.0, config_.sigma)};
  if (config_.clamp_to_field) p = config_.field().clamp(p);
  return p;
}

double DeploymentModel::pdf(int group, Vec2 p) const {
  const Vec2 dp = deployment_point(group);
  return gaussian2d_pdf_radial(distance(p, dp), config_.sigma);
}

ExpectedObservation DeploymentModel::expected_observation(
    Vec2 le, const GzTable& gz) const {
  // A NaN distance would reach the g(z) table's float-to-index cast.
  LAD_REQUIRE_MSG(std::isfinite(le.x),
                  "claimed location x = " << le.x << " is not finite");
  LAD_REQUIRE_MSG(std::isfinite(le.y),
                  "claimed location y = " << le.y << " is not finite");
  ExpectedObservation mu(static_cast<std::size_t>(num_groups()), 0.0);
  const double m = static_cast<double>(config_.nodes_per_group);
  for (int g = 0; g < num_groups(); ++g) {
    mu[static_cast<std::size_t>(g)] =
        m * gz.at(le, points_[static_cast<std::size_t>(g)]);
  }
  return mu;
}

double DeploymentModel::expected_neighbors(Vec2 le, const GzTable& gz) const {
  double total = 0.0;
  for (int g = 0; g < num_groups(); ++g) {
    total += gz.at(le, points_[static_cast<std::size_t>(g)]);
  }
  return total * config_.nodes_per_group;
}

}  // namespace lad
