#include "core/corrector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/likelihood.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/running_stats.h"
#include "util/assert.h"

namespace lad {
namespace {

DeploymentConfig cfg8() {
  DeploymentConfig cfg;
  cfg.field_side = 800.0;
  cfg.grid_nx = 8;
  cfg.grid_ny = 8;
  cfg.nodes_per_group = 60;
  cfg.sigma = 40.0;
  cfg.radio_range = 50.0;
  return cfg;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The scalar reference for LocationCorrector::correct with its default
// seeds and tolerance: the same starts in the same order, each searched by
// pattern_search.  With `share_memo` false every start gets a fresh memo,
// as correct() did before its starts shared one; with it true they share
// one.  `calls` counts the objective calls either way.
CorrectionResult reference_correct(const LocationCorrector& corrector,
                                   const DeploymentModel& model,
                                   const GzTable& gz, const Observation& obs,
                                   bool share_memo, long long& calls) {
  constexpr int kSeeds = 5;
  constexpr double kTol = 0.5;
  std::vector<double> caps;
  for (int g = 0; g < model.num_groups(); ++g) {
    caps.push_back(corrector.cap_for_group(g));
  }
  const BinomialLikelihood kernel(model, gz);
  BinomialLikelihood::Bound robust_ll = kernel.bind(obs, caps);
  CorrectionResult result;
  if (obs.total() == 0) {
    result.corrected = corrector.max_prior_deployment_point();
    result.robust_ll = robust_ll(result.corrected);
    for (int g = 0; g < model.num_groups(); ++g) {
      result.capped_groups.push_back(g);
    }
    return result;
  }

  std::vector<Vec2> starts;
  double wx = 0, wy = 0, wt = 0;
  std::vector<std::pair<int, int>> by_count;  // (count, group)
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    const Vec2 dp = model.deployment_point(static_cast<int>(g));
    wx += obs.counts[g] * dp.x;
    wy += obs.counts[g] * dp.y;
    wt += obs.counts[g];
    if (obs.counts[g] > 0) {
      by_count.emplace_back(obs.counts[g], static_cast<int>(g));
    }
  }
  starts.push_back({wx / wt, wy / wt});
  std::sort(by_count.rbegin(), by_count.rend());
  for (int s = 0; s < kSeeds && s < static_cast<int>(by_count.size()); ++s) {
    starts.push_back(
        model.deployment_point(by_count[static_cast<std::size_t>(s)].second));
  }

  const DeploymentConfig& cfg = model.config();
  const Aabb field = cfg.field();
  const double pitch =
      cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny));
  const auto objective = [&](Vec2 theta) {
    ++calls;
    return robust_ll(theta);
  };
  std::vector<SearchResult> shared;
  SearchResult best{{}, -std::numeric_limits<double>::infinity()};
  for (const Vec2& seed : starts) {
    std::vector<SearchResult> own;
    const SearchResult found =
        pattern_search(field, field.clamp(seed), pitch, kTol, objective,
                       share_memo ? shared : own);
    if (found.ll > best.ll) best = found;
  }
  result.corrected = best.at;
  result.robust_ll = best.ll;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    if (robust_ll.term(g, best.at) <= -caps[g]) {
      result.capped_groups.push_back(static_cast<int>(g));
    }
  }
  return result;
}

void expect_same_bits(const CorrectionResult& got,
                      const CorrectionResult& want) {
  EXPECT_EQ(bits(got.corrected.x), bits(want.corrected.x));
  EXPECT_EQ(bits(got.corrected.y), bits(want.corrected.y));
  EXPECT_EQ(bits(got.robust_ll), bits(want.robust_ll));
  EXPECT_EQ(got.capped_groups, want.capped_groups);
}

class CorrectorTest : public ::testing::Test {
 protected:
  CorrectorTest()
      : cfg_(cfg8()), model_(cfg_), gz_({cfg_.radio_range, cfg_.sigma}),
        rng_(88), net_(model_, rng_), corrector_(model_, gz_) {}

  std::size_t in_field_victim() {
    std::size_t node;
    do {
      node = static_cast<std::size_t>(rng_.uniform_int(net_.num_nodes()));
    } while (!cfg_.field().contains(net_.position(node)));
    return node;
  }

  /// The node nearest `target` (which may lie outside the field).
  std::size_t node_nearest(Vec2 target) const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < net_.num_nodes(); ++i) {
      if (distance2(net_.position(i), target) <
          distance2(net_.position(best), target)) {
        best = i;
      }
    }
    return best;
  }

  /// Observations of every kind correct() must handle: benign, Dec-Only
  /// and Dec-Bounded tainted, corner and edge victims, and all-silent.
  std::vector<Observation> oracle_batch() {
    std::vector<Observation> batch;
    for (int t = 0; t < 8; ++t) batch.push_back(net_.observe(in_field_victim()));
    for (const AttackClass attack :
         {AttackClass::kDecOnly, AttackClass::kDecBounded}) {
      for (int t = 0; t < 8; ++t) {
        const std::size_t node = in_field_victim();
        const Observation a = net_.observe(node);
        const Vec2 le =
            displaced_location(net_.position(node), 160.0, cfg_.field(), rng_);
        batch.push_back(greedy_taint(a, model_.expected_observation(le, gz_),
                                     cfg_.nodes_per_group, MetricKind::kDiff,
                                     attack, static_cast<int>(0.15 * a.total()))
                            .tainted);
      }
    }
    const double side = cfg_.field_side;
    for (const Vec2 target :
         {Vec2{0, 0}, Vec2{side, 0}, Vec2{0, side}, Vec2{side, side},
          Vec2{side / 2, 0}, Vec2{0, side / 2}, Vec2{side, side / 3},
          Vec2{side / 3, side}}) {
      batch.push_back(net_.observe(node_nearest(target)));
    }
    batch.emplace_back(static_cast<std::size_t>(model_.num_groups()));
    return batch;
  }

  DeploymentConfig cfg_;
  DeploymentModel model_;
  GzTable gz_;
  Rng rng_;
  Network net_;
  LocationCorrector corrector_;
};

// correct() shares one memo across its starts; the reference gives every
// start its own, as correct() once did.  The memo only skips repeated
// calls of a pure objective, so the result must not move by one bit - with
// the base cap and with caps conditioned by a bundle.
TEST_F(CorrectorTest, SharedMemoMatchesTheFreshMemoReferenceBitForBit) {
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  spec.group_overrides = {
      {0, 20.0, GroupOverrideSource::kTrained, 50, 4.0, 2.0},
      {7, 30.0, GroupOverrideSource::kTrained, 50, 6.0, 3.0},
      {27, 5.0, GroupOverrideSource::kTrained, 50, 1.0, 0.5},
      {63, 40.0, GroupOverrideSource::kTrained, 50, 8.0, 4.0}};
  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(make_bundle(model_, 128, {spec}));

  const std::vector<Observation> batch = oracle_batch();
  for (const LocationCorrector* c : {&corrector_, &conditioned}) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("observation " + std::to_string(i));
      long long calls = 0;
      expect_same_bits(c->correct(batch[i]),
                       reference_correct(*c, model_, gz_, batch[i],
                                         /*share_memo=*/false, calls));
    }
  }
}

// A deterministic work counter in the style of MleTest.SearchWorkIsPinned:
// the exact number of robust-likelihood evaluations a fixed-seed batch of
// corrections makes through correct()'s search, with its one shared memo
// and, for comparison, with a fresh memo per start.  Any change to the
// starts or the search that scores more (or fewer) points moves them.
TEST_F(CorrectorTest, SearchWorkIsPinned) {
  long long shared_calls = 0;
  long long fresh_calls = 0;
  for (const Observation& obs : oracle_batch()) {
    const CorrectionResult want = corrector_.correct(obs);
    expect_same_bits(reference_correct(corrector_, model_, gz_, obs,
                                       /*share_memo=*/true, shared_calls),
                     want);
    reference_correct(corrector_, model_, gz_, obs, /*share_memo=*/false,
                      fresh_calls);
  }
  EXPECT_EQ(shared_calls, 3449);
  EXPECT_EQ(fresh_calls, 8518);
}

TEST_F(CorrectorTest, BenignObservationsCorrectToTruth) {
  RunningStats err;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const CorrectionResult r = corrector_.correct(net_.observe(node));
    err.add(distance(r.corrected, net_.position(node)));
  }
  EXPECT_LT(err.mean(), 25.0);
}

TEST_F(CorrectorTest, DecOnlyTaintIsCorrectedNearBenignFloor) {
  RunningStats err;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const Observation a = net_.observe(node);
    const Vec2 la = net_.position(node);
    const Vec2 le = displaced_location(la, 160.0, cfg_.field(), rng_);
    const TaintResult taint = greedy_taint(
        a, model_.expected_observation(le, gz_), cfg_.nodes_per_group,
        MetricKind::kDiff, AttackClass::kDecOnly,
        static_cast<int>(0.15 * a.total()));
    err.add(distance(corrector_.correct(taint.tainted).corrected, la));
  }
  // Silences only remove evidence; the surviving bump pins the estimate.
  EXPECT_LT(err.mean(), 40.0);
}

TEST_F(CorrectorTest, DecBoundedCorrectionBeatsAcceptingTheFake) {
  RunningStats corrected_err;
  const double kDamage = 200.0;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const Observation a = net_.observe(node);
    const Vec2 la = net_.position(node);
    const Vec2 le = displaced_location(la, kDamage, cfg_.field(), rng_);
    const TaintResult taint = greedy_taint(
        a, model_.expected_observation(le, gz_), cfg_.nodes_per_group,
        MetricKind::kDiff, AttackClass::kDecBounded,
        static_cast<int>(0.10 * a.total()));
    corrected_err.add(distance(corrector_.correct(taint.tainted).corrected, la));
  }
  // Not necessarily near-perfect (correction under Dec-Bounded is open),
  // but on average it must beat blindly accepting the planted location.
  EXPECT_LT(corrected_err.mean(), kDamage);
}

TEST_F(CorrectorTest, RobustLikelihoodCapsWorstGroups) {
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  const double before = corrector_.robust_log_likelihood(obs, truth);
  // Inject an absurd count into a far group: the plain likelihood would
  // crater to ~-1e12; the capped one drops by at most the cap (25).
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const double after = corrector_.robust_log_likelihood(obs, truth);
  EXPECT_GE(after, before - 25.0 - 1e-9);
  EXPECT_LT(after, before);  // the forged group still costs something
}

TEST_F(CorrectorTest, CappedGroupsReportTheForgedOnes) {
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const CorrectionResult r = corrector_.correct(obs);
  EXPECT_NE(std::find(r.capped_groups.begin(), r.capped_groups.end(),
                      far_group),
            r.capped_groups.end())
      << "the forged group should be among the capped ones";
}

TEST_F(CorrectorTest, InvalidConstructionRejected) {
  EXPECT_THROW(LocationCorrector(model_, gz_, 0.0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, -5.0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, 25.0, 0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, 25.0, 3, 0.0), AssertionError);
}

TEST_F(CorrectorTest, SizeMismatchThrows) {
  EXPECT_THROW(corrector_.correct(Observation(3)), AssertionError);
}

// The public robust_log_likelihood reaches the kernel without correct()'s
// checks; the kernel names a group-count mismatch instead of leaving it to
// surface as a caps-size error (or, for the uncapped likelihood, as a
// silently shorter sum).
TEST_F(CorrectorTest, RobustLikelihoodRejectsAnObservationOfTheWrongSize) {
  const std::size_t groups = static_cast<std::size_t>(model_.num_groups());
  for (const std::size_t size : {groups - 1, groups + 1}) {
    try {
      corrector_.robust_log_likelihood(Observation(size), {500, 500});
      ADD_FAILURE() << size << " groups accepted";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("observation has"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CorrectorTest, AllZeroObservationHasDefinedBehavior) {
  // Every group silenced: no likelihood evidence at all.  Defined result:
  // the max-prior deployment point, every group flagged capped, no NaNs.
  const Observation silent(static_cast<std::size_t>(model_.num_groups()));
  const CorrectionResult r = corrector_.correct(silent);
  EXPECT_TRUE(std::isfinite(r.corrected.x));
  EXPECT_TRUE(std::isfinite(r.corrected.y));
  EXPECT_TRUE(std::isfinite(r.robust_ll));
  EXPECT_EQ(r.corrected, corrector_.max_prior_deployment_point());
  ASSERT_EQ(r.capped_groups.size(),
            static_cast<std::size_t>(model_.num_groups()));
  for (int g = 0; g < model_.num_groups(); ++g) {
    EXPECT_EQ(r.capped_groups[static_cast<std::size_t>(g)], g);
  }
  // Deterministic: the same silent observation yields the same point.
  EXPECT_EQ(corrector_.correct(silent).corrected, r.corrected);
}

TEST_F(CorrectorTest, MaxPriorPointIsAnInteriorDeploymentPoint) {
  // The deployment-density mixture peaks away from the field edge, so the
  // fallback point must be one of the interior deployment points.
  const Vec2 p = corrector_.max_prior_deployment_point();
  bool is_deployment_point = false;
  for (int g = 0; g < model_.num_groups(); ++g) {
    if (model_.deployment_point(g) == p) is_deployment_point = true;
  }
  EXPECT_TRUE(is_deployment_point);
  const double edge = std::min(std::min(p.x, cfg_.field_side - p.x),
                               std::min(p.y, cfg_.field_side - p.y));
  EXPECT_GT(edge, cfg_.sigma);  // not a boundary deployment point
}

TEST_F(CorrectorTest, GroupSpreadConditioningLoosensBoundaryCaps) {
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  // Group 0 trained twice as wide, group 5 half as wide.
  spec.group_overrides = {
      {0, 20.0, GroupOverrideSource::kTrained, 50, 4.0, 2.0},
      {5, 5.0, GroupOverrideSource::kTrained, 50, 1.0, 0.5}};
  const DetectorBundle bundle = make_bundle(model_, 128, {spec});

  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(bundle);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(0), 50.0);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(5), 12.5);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(1), 25.0);  // base cap
  EXPECT_DOUBLE_EQ(corrector_.cap_for_group(0), 25.0);   // unconditioned
  EXPECT_THROW(conditioned.cap_for_group(model_.num_groups()),
               AssertionError);
}

TEST_F(CorrectorTest, ConditionedCapsChangeTheCappedDiagnostic) {
  // Forge a far group hard enough to hit the base cap, then loosen that
  // group's cap via a bundle: the term must now cost more than the base
  // cap allowed (the diagnostic threshold moved with it).
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const double base_ll = corrector_.robust_log_likelihood(obs, truth);

  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  spec.group_overrides = {
      {far_group, 40.0, GroupOverrideSource::kTrained, 50, 8.0, 4.0}};
  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(make_bundle(model_, 128, {spec}));
  // A 4x looser cap lets the forged group's true implausibility through.
  EXPECT_LT(conditioned.robust_log_likelihood(obs, truth), base_ll);
}

TEST_F(CorrectorTest, GroupSpreadRejectsMismatchedBundle) {
  DeploymentConfig other = cfg_;
  other.grid_nx = 3;
  other.grid_ny = 3;
  const DeploymentModel other_model(other);
  const DetectorBundle bundle =
      make_bundle(other_model, 128, MetricKind::kDiff, 10.0);
  LocationCorrector c(model_, gz_);
  EXPECT_THROW(c.apply_group_spread(bundle), AssertionError);
}

}  // namespace
}  // namespace lad
