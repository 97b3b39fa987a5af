#include "support/experiment_oracle.h"

#include <gtest/gtest.h>

#include "util/assert.h"

#include "attack/adversary.h"
#include "core/metric.h"
#include "loc/truth_noise.h"
#include "sim/pipeline.h"

namespace lad {
namespace {

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.deploy.field_side = 600.0;
  cfg.deploy.grid_nx = 6;
  cfg.deploy.grid_ny = 6;
  cfg.deploy.nodes_per_group = 40;
  cfg.deploy.sigma = 30.0;
  cfg.deploy.radio_range = 50.0;
  cfg.networks = 4;
  cfg.victims_per_network = 60;
  cfg.seed = 31337;
  return cfg;
}

LocalizerFactory tn_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<TruthNoiseLocalizer>(8.0, seed);
  };
}

TEST(RocExperiment, ProducesOneCurvePerCombination) {
  Pipeline p(small_config());
  const auto results = run_roc_experiment(
      p, tn_factory(), {MetricKind::kDiff, MetricKind::kProb},
      {AttackClass::kDecBounded}, {60.0, 150.0}, 0.1);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_GT(r.curve.auc(), 0.4);
    EXPECT_DOUBLE_EQ(r.compromised_frac, 0.1);
  }
}

TEST(RocExperiment, AucGrowsWithDamage) {
  Pipeline p(small_config());
  const auto results =
      run_roc_experiment(p, tn_factory(), {MetricKind::kDiff},
                         {AttackClass::kDecBounded}, {40.0, 200.0}, 0.1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[0].curve.auc(), results[1].curve.auc());
  EXPECT_GT(results[1].curve.auc(), 0.9);
}

TEST(RocExperiment, DecOnlyIsEasierToDetectThanDecBounded) {
  Pipeline p(small_config());
  const auto results = run_roc_experiment(
      p, tn_factory(), {MetricKind::kDiff},
      {AttackClass::kDecBounded, AttackClass::kDecOnly}, {80.0}, 0.15);
  ASSERT_EQ(results.size(), 2u);
  // results[0] = Dec-Bounded, results[1] = Dec-Only.
  EXPECT_LE(results[0].curve.auc(), results[1].curve.auc() + 0.02);
}

TEST(DrSweep, DetectionRateIncreasesWithDamage) {
  Pipeline p(small_config());
  const auto points =
      run_dr_sweep(p, tn_factory(), MetricKind::kDiff,
                   AttackClass::kDecBounded, {40.0, 100.0, 200.0}, {0.1}, 0.01);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LE(points[0].detection_rate, points[1].detection_rate + 0.05);
  EXPECT_LE(points[1].detection_rate, points[2].detection_rate + 0.05);
  EXPECT_GT(points[2].detection_rate, 0.8);
  for (const auto& pt : points) {
    EXPECT_NEAR(pt.trained_fp, 0.01, 0.01);
  }
}

TEST(DrSweep, DetectionRateDecreasesWithCompromise) {
  Pipeline p(small_config());
  const auto points = run_dr_sweep(p, tn_factory(), MetricKind::kDiff,
                                   AttackClass::kDecBounded, {100.0},
                                   {0.0, 0.3, 0.6}, 0.01);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GE(points[0].detection_rate, points[1].detection_rate - 0.05);
  EXPECT_GE(points[1].detection_rate, points[2].detection_rate - 0.05);
}

TEST(DrSweep, RejectsBadFpBudget) {
  Pipeline p(small_config());
  EXPECT_THROW(run_dr_sweep(p, tn_factory(), MetricKind::kDiff,
                            AttackClass::kDecBounded, {100.0}, {0.1}, 0.0),
               AssertionError);
}

}  // namespace
}  // namespace lad
