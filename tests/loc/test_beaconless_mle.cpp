#include "loc/beaconless_mle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/assert.h"

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/likelihood.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/weighted_centroid.h"
#include "rng/rng.h"
#include "stats/running_stats.h"

namespace lad {
namespace {

DeploymentConfig paper_config_small_m() {
  DeploymentConfig cfg;  // paper geometry
  cfg.nodes_per_group = 100;  // lighter than 300 for test speed
  return cfg;
}

class MleTest : public ::testing::Test {
 protected:
  MleTest()
      : cfg_(paper_config_small_m()), model_(cfg_),
        gz_({cfg_.radio_range, cfg_.sigma}), rng_(31), net_(model_, rng_),
        mle_(model_, gz_) {}
  DeploymentConfig cfg_;
  DeploymentModel model_;
  GzTable gz_;
  Rng rng_;
  Network net_;
  BeaconlessMleLocalizer mle_;
};

TEST_F(MleTest, LogLikelihoodPeaksNearTruth) {
  const std::size_t node = 1234;
  const Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  const double ll_truth = mle_.log_likelihood(obs, truth);
  // A location 200 m away explains the observation much worse.
  const Vec2 far = cfg_.field().clamp(truth + Vec2{200, 0});
  EXPECT_GT(ll_truth, mle_.log_likelihood(obs, far));
  const Vec2 far2 = cfg_.field().clamp(truth + Vec2{0, -300});
  EXPECT_GT(ll_truth, mle_.log_likelihood(obs, far2));
}

// The public log_likelihood reaches the kernel without estimate()'s
// checks, so the kernel itself must refuse an observation that does not
// have one count per group - a short one used to sum fewer terms silently.
TEST_F(MleTest, LogLikelihoodRejectsAnObservationOfTheWrongSize) {
  const std::size_t groups = static_cast<std::size_t>(model_.num_groups());
  for (const std::size_t size : {groups - 1, groups + 1}) {
    try {
      mle_.log_likelihood(Observation(size), {500, 500});
      ADD_FAILURE() << size << " groups accepted";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("observation has"),
                std::string::npos)
          << e.what();
    }
  }
}

// A deterministic work counter: the exact number of likelihood evaluations
// a fixed-seed batch of 50 estimates makes, through the same search
// estimate() runs.  Any change to the search that scores more (or fewer)
// points moves it, whatever the host noise.
TEST_F(MleTest, SearchWorkIsPinned) {
  const BinomialLikelihood kernel(model_, gz_);
  const double pitch =
      cfg_.field_side / (2.0 * std::max(cfg_.grid_nx, cfg_.grid_ny));
  long long calls = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const Observation obs = net_.observe(i * 61 % net_.num_nodes());
    BinomialLikelihood::Bound loglik = kernel.bind(obs);
    const SearchResult found = pattern_search(
        cfg_.field(), weighted_centroid_estimate(model_, obs), pitch, 0.5,
        [&](Vec2 theta) {
          ++calls;
          return loglik(theta);
        });
    EXPECT_EQ(found.at, mle_.estimate(obs));
    EXPECT_EQ(found.ll, mle_.log_likelihood(obs, found.at));
  }
  EXPECT_EQ(calls, 2634);
}

TEST_F(MleTest, EstimateBeatsCoarseBaselineOnAverage) {
  RunningStats err;
  for (std::size_t node = 100; node < 3100; node += 250) {
    const Vec2 le = mle_.estimate(net_.observe(node));
    err.add(distance(le, net_.position(node)));
  }
  // With m = 100, sigma = 50, R = 50 the MLE lands within a few tens of
  // meters on average - far better than the ~45 m cell-radius baseline.
  EXPECT_LT(err.mean(), 40.0);
}

TEST_F(MleTest, EstimateImprovesWithDensity) {
  DeploymentConfig dense = cfg_;
  dense.nodes_per_group = 400;
  const DeploymentModel dense_model(dense);
  Rng rng(77);
  const Network dense_net(dense_model, rng);
  const BeaconlessMleLocalizer dense_mle(dense_model, gz_);

  RunningStats sparse_err, dense_err;
  for (int k = 0; k < 60; ++k) {
    const std::size_t a = static_cast<std::size_t>(rng.uniform_int(
        std::uint64_t(net_.num_nodes())));
    sparse_err.add(distance(mle_.estimate(net_.observe(a)), net_.position(a)));
    const std::size_t b = static_cast<std::size_t>(rng.uniform_int(
        std::uint64_t(dense_net.num_nodes())));
    dense_err.add(distance(dense_mle.estimate(dense_net.observe(b)),
                           dense_net.position(b)));
  }
  // The paper's Fig. 9 premise: localization accuracy improves with m.
  EXPECT_LT(dense_err.mean(), sparse_err.mean());
}

TEST_F(MleTest, EstimateStaysInsideField) {
  for (std::size_t node = 0; node < net_.num_nodes(); node += 977) {
    EXPECT_TRUE(cfg_.field().contains(mle_.estimate(net_.observe(node))));
  }
}

TEST_F(MleTest, EmptyObservationFallsBackGracefully) {
  const Observation empty(static_cast<std::size_t>(model_.num_groups()));
  const Vec2 le = mle_.estimate(empty);
  EXPECT_TRUE(cfg_.field().contains(le));
}

TEST_F(MleTest, SizeMismatchThrows) {
  EXPECT_THROW(mle_.estimate(Observation(5)), AssertionError);
}

TEST_F(MleTest, LocalizerInterfaceMatchesDirectEstimate) {
  const std::size_t node = 42;
  EXPECT_EQ(mle_.localize(net_, node), mle_.estimate(net_.observe(node)));
  EXPECT_EQ(mle_.name(), "beaconless-mle");
}

}  // namespace
}  // namespace lad
