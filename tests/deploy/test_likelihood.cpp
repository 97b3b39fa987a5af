// BinomialLikelihood against its scalar reference: the plain per-group
// log_binomial_pmf loop the MLE and the corrector summed before the kernel
// tabulated anything.  The kernel must return the same bits, with and
// without caps, for every m (including one past the log-factorial table),
// count (0, m, > m) and location (field corners, beyond the g(z) support,
// deployment points, anywhere in the field).
#include "deploy/likelihood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/special.h"

#if defined(__GLIBC__) || defined(__APPLE__)
extern "C" double lgamma_r(double, int*);
#endif

namespace lad {
namespace {

// The reference: the loop BinomialLikelihood replaces, term for term.
double reference_log_likelihood(const DeploymentModel& model,
                                const GzTable& gz, const Observation& obs,
                                Vec2 theta, const std::vector<double>* caps) {
  const int m = model.config().nodes_per_group;
  double ll = 0.0;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    double p = gz.at(theta, model.deployment_point(static_cast<int>(g)));
    if (p < 1e-300) p = 1e-300;
    double term = log_binomial_pmf(obs.counts[g], m, p);
    if (caps != nullptr) term = std::max(term, -(*caps)[g]);
    ll += term;
  }
  return ll;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Mostly small counts like a real neighbourhood, with the edges mixed in.
int draw_count(Rng& rng, int m) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0;
    case 1: return m;
    case 2: return m + static_cast<int>(rng.uniform_int(1, 3));
    case 3: return static_cast<int>(rng.uniform_int(0, m));
    default: return static_cast<int>(rng.uniform_int(0, std::min(m, 6)));
  }
}

std::vector<Vec2> probe_points(const DeploymentModel& model, Rng& rng) {
  const double side = model.config().field_side;
  std::vector<Vec2> at = {{0, 0},           {side, 0},
                          {0, side},        {side, side},
                          {-3 * side, 0},   {side * 4, side * 4},
                          {side / 2, -side}};
  for (int i = 0; i < 6; ++i) {
    at.push_back(model.deployment_point(
        static_cast<int>(rng.uniform_int(0, model.num_groups() - 1))));
    at.push_back({rng.uniform(0, side), rng.uniform(0, side)});
  }
  return at;
}

class LikelihoodOracle : public testing::TestWithParam<int> {};

TEST_P(LikelihoodOracle, MatchesTheScalarLoopBitForBit) {
  DeploymentConfig cfg;
  cfg.nodes_per_group = GetParam();
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  const BinomialLikelihood kernel(model, gz);
  Rng rng(static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 8; ++trial) {
    Observation obs(static_cast<std::size_t>(model.num_groups()));
    for (int& c : obs.counts) c = draw_count(rng, cfg.nodes_per_group);
    std::vector<double> caps(obs.num_groups());
    for (double& cap : caps) cap = rng.uniform(0.5, 60.0);

    for (const Vec2 theta : probe_points(model, rng)) {
      const double plain = reference_log_likelihood(model, gz, obs, theta,
                                                    nullptr);
      EXPECT_EQ(bits(kernel.log_likelihood(obs, theta)), bits(plain))
          << "m=" << cfg.nodes_per_group << " theta=(" << theta.x << ", "
          << theta.y << ")";
      const double capped = reference_log_likelihood(model, gz, obs, theta,
                                                     &caps);
      EXPECT_EQ(bits(kernel.capped_log_likelihood(obs, theta, caps)),
                bits(capped))
          << "m=" << cfg.nodes_per_group << " theta=(" << theta.x << ", "
          << theta.y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NodesPerGroup, LikelihoodOracle,
                         testing::Values(1, 300, 1000, 5000));

TEST(BinomialLikelihood, FarGroupsReadTheFloorRow) {
  DeploymentConfig cfg;
  cfg.nodes_per_group = 40;
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  const BinomialLikelihood kernel(model, gz);
  const Vec2 far{-5000, -5000};
  for (int k : {0, 1, 39, 40}) {
    EXPECT_EQ(bits(kernel.term(k, far, 0)),
              bits(log_binomial_pmf(k, 40, BinomialLikelihood::kPFloor)));
  }
  EXPECT_EQ(kernel.term(41, far, 0), -INFINITY);
  EXPECT_EQ(kernel.term(-1, far, 0), -INFINITY);
}

TEST(BinomialLikelihood, CapsMustCoverEveryGroup) {
  const DeploymentModel model{DeploymentConfig{}};
  const GzTable gz({50.0, 50.0});
  const BinomialLikelihood kernel(model, gz);
  const Observation obs(static_cast<std::size_t>(model.num_groups()));
  const std::vector<double> short_caps(3, 25.0);
  EXPECT_ANY_THROW(kernel.capped_log_likelihood(obs, {500, 500}, short_caps));
}

#if defined(__GLIBC__) || defined(__APPLE__)
TEST(LogFactorialTable, EqualsLgammaAtTheTableEdges) {
  constexpr int n_table = kLogFactorialTableSize;
  for (int n : {0, 1, n_table - 1, n_table, n_table + 1}) {
    int sign = 0;
    const double expected = lgamma_r(static_cast<double>(n) + 1.0, &sign);
    EXPECT_EQ(bits(log_factorial(n)), bits(expected)) << "n=" << n;
  }
}
#endif

TEST(PatternSearch, ClimbsToTheMaximumWithinTolerance) {
  const Aabb field = Aabb::square(100.0);
  const Vec2 peak{37.3, 81.9};
  int evals = 0;
  const Vec2 found = pattern_search(
      field, {5, 5}, 12.5, 0.25, [&](Vec2 p) {
        ++evals;
        return -distance(p, peak);
      });
  EXPECT_LT(distance(found, peak), 0.5);
  EXPECT_GT(evals, 9);
}

TEST(PatternSearch, StaysInsideTheFieldAndKeepsAStartThatWins) {
  const Aabb field = Aabb::square(100.0);
  // The maximum lies outside the field: the search ends on its edge.
  const Vec2 edge = pattern_search(field, {50, 50}, 10.0, 0.5, [](Vec2 p) {
    return p.x + p.y;
  });
  EXPECT_DOUBLE_EQ(edge.x, 100.0);
  EXPECT_DOUBLE_EQ(edge.y, 100.0);
  // Ties are not improvements: a flat objective never leaves the start,
  // even one outside the field.
  const Vec2 start{-20, 130};
  const Vec2 flat =
      pattern_search(field, start, 10.0, 0.5, [](Vec2) { return 1.0; });
  EXPECT_EQ(flat, start);
}

}  // namespace
}  // namespace lad
