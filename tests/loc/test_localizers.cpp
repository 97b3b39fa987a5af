#include <gtest/gtest.h>

#include "util/assert.h"

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/amorphous.h"
#include "loc/dvhop.h"
#include "loc/localizer.h"
#include "loc/truth_noise.h"
#include "loc/weighted_centroid.h"
#include "rng/rng.h"
#include "stats/running_stats.h"

namespace lad {
namespace {

DeploymentConfig test_config() {
  DeploymentConfig cfg;
  cfg.field_side = 600.0;
  cfg.grid_nx = 6;
  cfg.grid_ny = 6;
  cfg.nodes_per_group = 60;
  cfg.sigma = 30.0;
  cfg.radio_range = 50.0;
  return cfg;
}

class LocalizersTest : public ::testing::Test {
 protected:
  LocalizersTest() : cfg_(test_config()), model_(cfg_), rng_(55),
                     net_(model_, rng_) {}

  double mean_error(Localizer& loc, int samples = 40) {
    loc.prepare(net_);
    Rng rng(99);
    RunningStats err;
    for (int i = 0; i < samples; ++i) {
      const std::size_t node = static_cast<std::size_t>(
          rng.uniform_int(std::uint64_t(net_.num_nodes())));
      err.add(distance(loc.localize(net_, node), net_.position(node)));
    }
    return err.mean();
  }

  DeploymentConfig cfg_;
  DeploymentModel model_;
  Rng rng_;
  Network net_;
};

TEST_F(LocalizersTest, TruthNoiseHasTheConfiguredError) {
  TruthNoiseLocalizer exact(0.0, 1);
  EXPECT_DOUBLE_EQ(mean_error(exact), 0.0);
  TruthNoiseLocalizer noisy(10.0, 1);
  const double err = mean_error(noisy, 200);
  // Mean of a 2-D Gaussian radius with sigma=10 is sigma * sqrt(pi/2) ~ 12.5.
  EXPECT_NEAR(err, 12.5, 3.0);
  EXPECT_EQ(noisy.name(), "truth+noise");
}

TEST_F(LocalizersTest, WeightedCentroidIsReasonable) {
  WeightedCentroidLocalizer wc(model_);
  const double err = mean_error(wc);
  EXPECT_LT(err, 80.0);  // coarse but sane for 100 m cells
  EXPECT_EQ(wc.name(), "weighted-centroid");
}

TEST_F(LocalizersTest, WeightedCentroidEmptyObservationFallsBack) {
  const Observation empty(static_cast<std::size_t>(model_.num_groups()));
  EXPECT_EQ(weighted_centroid_estimate(model_, empty), cfg_.field().center());
}

TEST_F(LocalizersTest, DvHopBeatsGridCellScale) {
  DvHopLocalizer dvhop(4, 4);
  const double err = mean_error(dvhop);
  // DV-Hop with 16 anchors on this dense strip localizes to well under a
  // couple of hop lengths.
  EXPECT_LT(err, 2.5 * cfg_.radio_range);
  EXPECT_GE(dvhop.anchor_nodes().size(), 3u);
  EXPECT_GT(dvhop.avg_hop_distance(), 0.0);
  EXPECT_LE(dvhop.avg_hop_distance(), cfg_.radio_range);
  EXPECT_EQ(dvhop.name(), "dv-hop");
}

TEST_F(LocalizersTest, DvHopCompromisedAnchorDegradesAccuracy) {
  DvHopLocalizer dvhop(3, 3);
  const double honest_err = mean_error(dvhop);
  // The anchor lies by 2 km.
  dvhop.compromise_anchor(0, {2000, 2000});
  Rng rng(99);
  RunningStats attacked;
  for (int i = 0; i < 40; ++i) {
    const std::size_t node = static_cast<std::size_t>(
        rng.uniform_int(std::uint64_t(net_.num_nodes())));
    attacked.add(distance(dvhop.localize(net_, node), net_.position(node)));
  }
  EXPECT_GT(attacked.mean(), honest_err);
}

TEST_F(LocalizersTest, AmorphousComparableToDvHop) {
  AmorphousLocalizer amorphous(4, 4);
  const double err = mean_error(amorphous);
  EXPECT_LT(err, 3.0 * cfg_.radio_range);
  EXPECT_GT(amorphous.hop_distance(), 0.0);
  EXPECT_LE(amorphous.hop_distance(), cfg_.radio_range);
  EXPECT_EQ(amorphous.name(), "amorphous");
}

TEST_F(LocalizersTest, KleinrockSilvesterFormulaSane) {
  const double R = 50.0;
  // Denser networks cover more distance per hop, approaching R.
  const double sparse = kleinrock_silvester_hop_distance(5.0, R);
  const double dense = kleinrock_silvester_hop_distance(40.0, R);
  EXPECT_GT(dense, sparse);
  EXPECT_LE(dense, R);
  EXPECT_GT(sparse, 0.0);
  EXPECT_THROW(kleinrock_silvester_hop_distance(0.0, R), AssertionError);
}

}  // namespace
}  // namespace lad
