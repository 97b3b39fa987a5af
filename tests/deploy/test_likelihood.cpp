// BinomialLikelihood and pattern_search against their scalar references.
//
// The kernel: the plain per-group log_binomial_pmf loop the MLE and the
// corrector summed before the kernel bound anything.  A bound observation
// must return the same bits, with and without caps, for every deployment
// shape, every m (including one past the log-factorial table), count (0, m,
// > m, negative) and location (field corners, beyond the g(z) support,
// deployment points, anywhere in the field).
//
// The search: the memo-free stencil loop it replaced.  The memoised search
// must reach the same point with the same value, and never score a point
// twice, also when several searches share one memo.
#include "deploy/likelihood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/special.h"
#include "util/assert.h"

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
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0;
    case 1: return m;
    case 2: return m + static_cast<int>(rng.uniform_int(1, 3));
    case 3: return -static_cast<int>(rng.uniform_int(1, 3));
    case 4: return static_cast<int>(rng.uniform_int(0, m));
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
  const GzTable gz({cfg.radio_range, cfg.sigma});
  Rng rng(static_cast<std::uint64_t>(GetParam()));

  for (const DeploymentShape shape :
       {DeploymentShape::kGrid, DeploymentShape::kHex,
        DeploymentShape::kRandom}) {
    const DeploymentModel model = DeploymentModel::make(shape, cfg, 7);
    const BinomialLikelihood kernel(model, gz);
    for (int trial = 0; trial < 6; ++trial) {
      Observation obs(static_cast<std::size_t>(model.num_groups()));
      for (int& c : obs.counts) c = draw_count(rng, cfg.nodes_per_group);
      std::vector<double> caps(obs.num_groups());
      for (double& cap : caps) cap = rng.uniform(0.5, 60.0);
      BinomialLikelihood::Bound plain = kernel.bind(obs);
      BinomialLikelihood::Bound capped = kernel.bind(obs, caps);

      for (const Vec2 theta : probe_points(model, rng)) {
        const std::string where =
            std::string(deployment_shape_name(shape)) +
            " m=" + std::to_string(cfg.nodes_per_group) + " theta=(" +
            std::to_string(theta.x) + ", " + std::to_string(theta.y) + ")";
        EXPECT_EQ(bits(plain(theta)),
                  bits(reference_log_likelihood(model, gz, obs, theta,
                                                nullptr)))
            << where;
        EXPECT_EQ(bits(capped(theta)),
                  bits(reference_log_likelihood(model, gz, obs, theta,
                                                &caps)))
            << where;
      }
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
  Observation obs(static_cast<std::size_t>(model.num_groups()));
  const std::array<int, 6> counts = {0, 1, 39, 40, 41, -1};
  for (std::size_t g = 0; g < counts.size(); ++g) obs.counts[g] = counts[g];
  const BinomialLikelihood::Bound bound = kernel.bind(obs);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(bits(bound.term(g, far)),
              bits(log_binomial_pmf(counts[g], 40,
                                    BinomialLikelihood::kPFloor)));
  }
  EXPECT_EQ(bound.term(4, far), -INFINITY);
  EXPECT_EQ(bound.term(5, far), -INFINITY);
}

TEST(BinomialLikelihood, CapsMustCoverEveryGroup) {
  const DeploymentModel model{DeploymentConfig{}};
  const GzTable gz({50.0, 50.0});
  const BinomialLikelihood kernel(model, gz);
  const Observation obs(static_cast<std::size_t>(model.num_groups()));
  const std::vector<double> short_caps(3, 25.0);
  EXPECT_THROW(kernel.bind(obs, short_caps), AssertionError);
}

TEST(BinomialLikelihood, BindRejectsAnObservationOfTheWrongSize) {
  const DeploymentModel model{DeploymentConfig{}};
  const GzTable gz({50.0, 50.0});
  const BinomialLikelihood kernel(model, gz);
  const std::size_t groups = static_cast<std::size_t>(model.num_groups());
  EXPECT_THROW(kernel.bind(Observation(groups - 1)), AssertionError);
  EXPECT_THROW(kernel.bind(Observation(groups + 1)), AssertionError);
}

// log_binomial_pmf skips the log of a zero exponent; the formula without
// the skip, kept here, must give the same bits at both ends of the count
// range and across p, down to the subnormal edge and up to 1 - 2^-53.
TEST(LogBinomialTerm, ZeroSkipMatchesTheUnskippedFormula) {
  const auto unskipped = [](int k, int n, double p) {
    return log_binomial_coefficient(n, k) + k * std::log(p) +
           (n - k) * std::log1p(-p);
  };
  const std::array<double, 7> ps = {1e-300,      DBL_MIN,
                                    DBL_MIN / 2, DBL_TRUE_MIN,
                                    0.5,         1.0 - 0x1p-53,
                                    0.3};
  for (int n : {1, 300, 1000, 5000}) {
    for (int k : {0, n, n / 2}) {
      for (double p : ps) {
        const double want = unskipped(k, n, p);
        EXPECT_EQ(bits(log_binomial_pmf(k, n, p)), bits(want))
            << "k=" << k << " n=" << n << " p=" << p;
        EXPECT_EQ(bits(log_binomial_term(log_binomial_coefficient(n, k), k,
                                         n, p)),
                  bits(want))
            << "k=" << k << " n=" << n << " p=" << p;
      }
    }
  }
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

// --- pattern_search ------------------------------------------------------

// The search before it was memoised: every stencil point goes to the
// objective, repeats included.
SearchResult reference_search(const Aabb& field, Vec2 start, double pitch,
                              double tol,
                              const std::function<double(Vec2)>& objective) {
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  SearchResult best{start, objective(start)};
  while (pitch >= tol) {
    bool improved = false;
    for (const Vec2& d : kDirs) {
      const Vec2 cand = field.clamp(best.at + d * pitch);
      const double ll = objective(cand);
      if (ll > best.ll) {
        best = {cand, ll};
        improved = true;
      }
    }
    if (!improved) pitch /= 2.0;
  }
  return best;
}

// An objective wrapper that records every point it is asked to score.
struct Recorder {
  std::function<double(Vec2)> objective;
  std::vector<Vec2> seen;

  double operator()(Vec2 at) {
    seen.push_back(at);
    return objective(at);
  }
  bool any_repeat() const {
    for (std::size_t i = 0; i < seen.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (seen[i] == seen[j]) return true;
      }
    }
    return false;
  }
};

// The memoised search against the reference on one problem: same point,
// same value bits, no point scored twice.  Returns the objective calls.
std::size_t expect_same_search(const Aabb& field, Vec2 start, double pitch,
                               double tol,
                               const std::function<double(Vec2)>& objective) {
  Recorder rec{objective, {}};
  std::vector<SearchResult> memo;
  const SearchResult got = pattern_search(
      field, start, pitch, tol, [&](Vec2 at) { return rec(at); }, memo);
  const SearchResult want =
      reference_search(field, start, pitch, tol, objective);
  EXPECT_EQ(got.at, want.at) << "start=(" << start.x << ", " << start.y
                             << ")";
  EXPECT_EQ(bits(got.ll), bits(want.ll));
  EXPECT_FALSE(rec.any_repeat());
  return rec.seen.size();
}

TEST(PatternSearch, ClimbsToTheMaximumWithinTolerance) {
  const Aabb field = Aabb::square(100.0);
  const Vec2 peak{37.3, 81.9};
  int evals = 0;
  std::vector<SearchResult> memo;
  const SearchResult found = pattern_search(
      field, {5, 5}, 12.5, 0.25,
      [&](Vec2 p) {
        ++evals;
        return -distance(p, peak);
      },
      memo);
  EXPECT_LT(distance(found.at, peak), 0.5);
  EXPECT_EQ(found.ll, -distance(found.at, peak));
  EXPECT_GT(evals, 9);
}

TEST(PatternSearch, StaysInsideTheFieldAndKeepsAStartThatWins) {
  const Aabb field = Aabb::square(100.0);
  // The maximum lies outside the field: the search ends on its edge.
  std::vector<SearchResult> edge_memo;
  const SearchResult edge =
      pattern_search(field, {50, 50}, 10.0, 0.5,
                     [](Vec2 p) { return p.x + p.y; }, edge_memo);
  EXPECT_DOUBLE_EQ(edge.at.x, 100.0);
  EXPECT_DOUBLE_EQ(edge.at.y, 100.0);
  // Ties are not improvements: a flat objective never leaves the start,
  // even one outside the field.
  const Vec2 start{-20, 130};
  std::vector<SearchResult> flat_memo;
  const SearchResult flat = pattern_search(
      field, start, 10.0, 0.5, [](Vec2) { return 1.0; }, flat_memo);
  EXPECT_EQ(flat.at, start);
  EXPECT_EQ(flat.ll, 1.0);
}

// Plateaus make ties everywhere (only a strict > moves), and the optima sit
// on an edge, in a corner or outside the field, where clamping folds many
// stencil points onto one.
TEST(PatternSearch, MemoMatchesTheReferenceOnPlateausAndClampedOptima) {
  const Aabb field = Aabb::square(100.0);
  const std::vector<std::function<double(Vec2)>> objectives = {
      [](Vec2 p) { return std::floor(p.x / 25) + std::floor(p.y / 25); },
      [](Vec2 p) { return -std::floor(distance(p, {100, 40}) / 10); },
      [](Vec2 p) { return -std::floor(distance(p, {0, 0}) / 7); },
      [](Vec2 p) { return -std::floor(distance(p, {180, -60}) / 15); },
      [](Vec2 p) { return std::floor(p.y / 30) - std::floor(p.x / 50); },
      [](Vec2) { return 0.0; },
  };
  const std::vector<Vec2> starts = {{50, 50}, {0, 0},   {100, 100},
                                    {3, 97},  {-20, 130}, {61.5, 12.25}};
  for (const auto& objective : objectives) {
    for (const Vec2 start : starts) {
      for (const double pitch : {25.0, 12.5, 7.0}) {
        expect_same_search(field, start, pitch, 0.5, objective);
      }
    }
  }
}

// Several starts of one objective share one memo, as the corrector's do.
// Each search still reaches the reference's point and value, and the
// objective sees every point any of the searches visits exactly once: the
// shared calls are the union of what separate memos would score.
TEST(PatternSearch, StartsSharingOneMemoScoreEachDistinctPointOnce) {
  const Aabb field = Aabb::square(100.0);
  // Two bumps, so some starts climb the same hill and others do not.
  const auto objective = [](Vec2 p) {
    return std::max(-distance(p, {30, 70}), -distance(p, {80, 20}) - 5.0);
  };
  const std::vector<Vec2> starts = {{50, 50}, {25, 75}, {75, 25},
                                    {0, 0},   {100, 100}, {50, 50}};
  Recorder shared{objective, {}};
  std::vector<SearchResult> memo;
  std::vector<Vec2> distinct;  // the union over separate searches
  std::size_t separate_calls = 0;
  for (const Vec2 start : starts) {
    const SearchResult got = pattern_search(
        field, start, 12.5, 0.5, [&](Vec2 at) { return shared(at); }, memo);
    const SearchResult want =
        reference_search(field, start, 12.5, 0.5, objective);
    EXPECT_EQ(got.at, want.at);
    EXPECT_EQ(bits(got.ll), bits(want.ll));

    Recorder own{objective, {}};
    std::vector<SearchResult> own_memo;
    pattern_search(
        field, start, 12.5, 0.5, [&](Vec2 at) { return own(at); }, own_memo);
    separate_calls += own.seen.size();
    for (const Vec2 at : own.seen) {
      if (std::find(distinct.begin(), distinct.end(), at) == distinct.end()) {
        distinct.push_back(at);
      }
    }
  }
  EXPECT_FALSE(shared.any_repeat());
  EXPECT_EQ(shared.seen.size(), distinct.size());
  for (const Vec2 at : distinct) {
    EXPECT_NE(std::find(shared.seen.begin(), shared.seen.end(), at),
              shared.seen.end());
  }
  // The memo holds exactly the scored points, in the order scored.
  ASSERT_EQ(memo.size(), shared.seen.size());
  for (std::size_t i = 0; i < memo.size(); ++i) {
    EXPECT_EQ(memo[i].at, shared.seen[i]);
  }
  EXPECT_LT(shared.seen.size(), separate_calls);
}

// The MLE's objective on 200 real observations, each searched from 40 m
// off the node: the memo changes neither the optimum nor its value, and
// removes every repeated point.
TEST(PatternSearch, MemoMatchesTheReferenceOnRealObservations) {
  DeploymentConfig cfg;       // paper geometry
  cfg.nodes_per_group = 100;  // lighter than 300 for test speed
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  const BinomialLikelihood kernel(model, gz);
  Rng rng(2005);
  const Network net(model, rng);
  const double pitch =
      cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny));
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t node = i * 97 % net.num_nodes();
    BinomialLikelihood::Bound loglik = kernel.bind(net.observe(node));
    expect_same_search(cfg.field(),
                       cfg.field().clamp(net.position(node) + Vec2{24, -32}),
                       pitch, 0.5, [&](Vec2 theta) { return loglik(theta); });
  }
}

}  // namespace
}  // namespace lad
