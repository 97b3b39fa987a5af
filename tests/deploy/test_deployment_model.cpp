#include "deploy/deployment_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "deploy/config.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/running_stats.h"
#include "util/assert.h"

namespace lad {
namespace {

DeploymentConfig small_config() {
  DeploymentConfig cfg;
  cfg.field_side = 600.0;
  cfg.grid_nx = 3;
  cfg.grid_ny = 2;
  cfg.nodes_per_group = 50;
  cfg.sigma = 40.0;
  cfg.radio_range = 50.0;
  return cfg;
}

TEST(DeploymentModel, GridPointsAtCellCenters) {
  const DeploymentModel model(small_config());
  ASSERT_EQ(model.num_groups(), 6);
  // 3 x 2 over 600 x 600: cells are 200 x 300.
  EXPECT_EQ(model.deployment_point(0), (Vec2{100, 150}));
  EXPECT_EQ(model.deployment_point(1), (Vec2{300, 150}));
  EXPECT_EQ(model.deployment_point(2), (Vec2{500, 150}));
  EXPECT_EQ(model.deployment_point(3), (Vec2{100, 450}));
  EXPECT_EQ(model.deployment_point(5), (Vec2{500, 450}));
}

TEST(DeploymentModel, PaperLayoutFigure1) {
  // The paper's Figure 1: 10x10 grid over 1000x1000 with centers at
  // 50, 150, ..., 950.
  const DeploymentModel model(DeploymentConfig{});
  EXPECT_EQ(model.deployment_point(0), (Vec2{50, 50}));
  EXPECT_EQ(model.deployment_point(9), (Vec2{950, 50}));
  EXPECT_EQ(model.deployment_point(10), (Vec2{50, 150}));
  EXPECT_EQ(model.deployment_point(99), (Vec2{950, 950}));
}

TEST(DeploymentModel, GroupIndexBounds) {
  const DeploymentModel model(small_config());
  EXPECT_THROW(model.deployment_point(-1), AssertionError);
  EXPECT_THROW(model.deployment_point(6), AssertionError);
}

TEST(DeploymentModel, NearestGroup) {
  const DeploymentModel model(small_config());
  EXPECT_EQ(model.nearest_group({100, 150}), 0);
  EXPECT_EQ(model.nearest_group({490, 440}), 5);
  EXPECT_EQ(model.nearest_group({0, 0}), 0);
}

TEST(DeploymentModel, ScatterMomentsMatchGaussian) {
  const DeploymentConfig cfg = small_config();
  const DeploymentModel model(cfg);
  Rng rng(123);
  RunningStats dx, dy;
  const Vec2 dp = model.deployment_point(4);
  for (int i = 0; i < 20000; ++i) {
    const Vec2 p = model.sample_resident_point(4, rng);
    dx.add(p.x - dp.x);
    dy.add(p.y - dp.y);
  }
  EXPECT_NEAR(dx.mean(), 0.0, 1.5);
  EXPECT_NEAR(dy.mean(), 0.0, 1.5);
  EXPECT_NEAR(dx.stddev(), cfg.sigma, 1.0);
  EXPECT_NEAR(dy.stddev(), cfg.sigma, 1.0);
}

TEST(DeploymentModel, ClampedScatterStaysInField) {
  DeploymentConfig cfg = small_config();
  cfg.clamp_to_field = true;
  const DeploymentModel model(cfg);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Corner group: without clamping ~half the samples would leave.
    EXPECT_TRUE(cfg.field().contains(model.sample_resident_point(0, rng)));
  }
}

TEST(DeploymentModel, PdfPeaksAtDeploymentPointAndIsRadial) {
  const DeploymentModel model(small_config());
  const Vec2 dp = model.deployment_point(2);
  const double peak = model.pdf(2, dp);
  EXPECT_GT(peak, model.pdf(2, dp + Vec2{10, 0}));
  // Radial symmetry: equal distances give equal densities.
  EXPECT_DOUBLE_EQ(model.pdf(2, dp + Vec2{30, 0}), model.pdf(2, dp + Vec2{0, 30}));
  EXPECT_DOUBLE_EQ(model.pdf(2, dp + Vec2{3, 4}), model.pdf(2, dp + Vec2{5, 0}));
}

TEST(DeploymentModel, PdfIntegratesToOne) {
  const DeploymentConfig cfg = small_config();
  const DeploymentModel model(cfg);
  const Vec2 dp = model.deployment_point(0);
  // Midpoint rule over a box of +-6 sigma around the deployment point.
  const double r = 6 * cfg.sigma;
  const int n = 300;
  const double h = 2 * r / n;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Vec2 p{dp.x - r + (i + 0.5) * h, dp.y - r + (j + 0.5) * h};
      total += model.pdf(0, p) * h * h;
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(DeploymentModel, ExpectedObservationScalesWithM) {
  const DeploymentConfig cfg = small_config();
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  const Vec2 le{250, 200};
  const ExpectedObservation mu = model.expected_observation(le, gz);
  ASSERT_EQ(mu.size(), 6u);
  double total = 0.0;
  for (std::size_t g = 0; g < mu.size(); ++g) {
    // mu_i = m * g_i(le), so it never exceeds m and is non-negative.
    EXPECT_GE(mu[g], 0.0);
    EXPECT_LE(mu[g], cfg.nodes_per_group);
    total += mu[g];
  }
  EXPECT_NEAR(model.expected_neighbors(le, gz), total, 1e-9);
  // Nearby groups dominate: group 1 at (300,150) is closest to le.
  EXPECT_GT(mu[1], mu[5]);
}

// A non-finite claimed location has no expected observation: it used to
// reach the g(z) table's float-to-index cast and score as NaN, which no
// threshold test flags.  The error names the bad coordinate.
TEST(DeploymentModel, ExpectedObservationRejectsANonFiniteLocation) {
  const DeploymentConfig cfg = small_config();
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const bool in_x : {true, false}) {
      const Vec2 le = in_x ? Vec2{bad, 200} : Vec2{250, bad};
      try {
        model.expected_observation(le, gz);
        ADD_FAILURE() << "accepted (" << le.x << ", " << le.y << ")";
      } catch (const AssertionError& e) {
        const std::string want =
            std::string("claimed location ") + (in_x ? "x" : "y") + " = ";
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace lad
