// The group-based deployment model of Section 3: n = nx * ny groups, one
// deployment point per grid-cell center, resident points scattered around
// the deployment point by an isotropic 2-D Gaussian with std sigma.
#pragma once

#include <string>
#include <vector>

#include "deploy/config.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "rng/rng.h"

namespace lad {

/// Deployment-point layouts (Section 3.1: "the scheme we developed for
/// grid-based deployment can be easily extended to other deployment
/// strategies, such as deployments where the deployment points form
/// hexagon shapes, or deployments where the deployment points are random
/// (as long as their locations are given to all sensors)").
enum class DeploymentShape { kGrid, kHex, kRandom };

const char* deployment_shape_name(DeploymentShape shape);
DeploymentShape deployment_shape_from_name(const std::string& name);

class DeploymentModel {
 public:
  /// Grid layout (the paper's evaluation setup): one deployment point per
  /// grid-cell center.
  explicit DeploymentModel(const DeploymentConfig& config);

  /// Arbitrary deployment points (num_groups = points.size()); the config's
  /// grid_nx/grid_ny are ignored for layout but sigma/m/R still apply.
  DeploymentModel(const DeploymentConfig& config, std::vector<Vec2> points);

  /// Hexagonal packing with the same point pitch as the grid layout.
  static DeploymentModel hex(const DeploymentConfig& config);

  /// config.num_groups() points uniform in the field (known to all
  /// sensors, per Section 3.1).
  static DeploymentModel random(const DeploymentConfig& config, Rng& rng);

  static DeploymentModel make(DeploymentShape shape,
                              const DeploymentConfig& config,
                              std::uint64_t seed = 0);

  const DeploymentConfig& config() const { return config_; }
  int num_groups() const { return static_cast<int>(points_.size()); }
  int total_nodes() const { return num_groups() * config_.nodes_per_group; }

  /// Deployment point (grid-cell center) of group i.
  Vec2 deployment_point(int group) const;
  const std::vector<Vec2>& deployment_points() const { return points_; }

  /// Group whose deployment point is nearest to p.
  int nearest_group(Vec2 p) const;

  /// Samples a resident point for a node of `group` (Gaussian scatter;
  /// optionally clamped into the field per config).
  Vec2 sample_resident_point(int group, Rng& rng) const;

  /// Deployment pdf f_k^i(x, y | k in G_i) of Section 3.2.
  double pdf(int group, Vec2 p) const;

  /// Expected observation at location le (Eq. 2): mu_i = m * g_i(le).
  /// Every metric's mu comes from here, so a non-finite coordinate of le
  /// is rejected here, by name.
  ExpectedObservation expected_observation(Vec2 le, const GzTable& gz) const;

  /// Expected total neighborhood size at le: sum_i mu_i.
  double expected_neighbors(Vec2 le, const GzTable& gz) const;

 private:
  DeploymentConfig config_;
  std::vector<Vec2> points_;
};

}  // namespace lad
