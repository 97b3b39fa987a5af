// The binomial likelihood of an observation at a candidate location, and
// the pattern search that maximises it: the one home of both for the
// beaconless MLE (loc/beaconless_mle) and the location corrector
// (core/corrector).
//
// Each group count X_g ~ Binom(m, g_g(theta)) independently (ref. [8]), so
//
//   log L(theta) = sum_g log Binom(o_g; m, max(g_g(theta), kPFloor)).
//
// The floor keeps a group whose probability at theta is (numerically) zero
// from making theta impossible: tainted observations would otherwise
// flatten the whole field to -inf and strand the search.  With the floor,
// locations explaining more of the observation still compare as strictly
// better.
//
// Cost.  A search scores one observation at many locations, so the kernel
// binds the observation once (bind): the bound object checks it and hoists
// everything that depends on the counts alone - log C(m, o_g), the floored
// term and the cap of every group.  Past the g(z) support radius g_g(theta)
// is 0, so the floored term is a table row filled once per (model, gz): a
// far group - roughly half of them at the paper's defaults - costs one
// load.  An in-support group costs a log1p, plus a log only when o_g > 0
// (log_binomial_term skips a log whose exponent is 0).  Every term is the
// same function of the same inputs as a direct log_binomial_pmf call,
// summed in group order with the same floor test, so the result is
// bit-identical to the plain loop (tests/deploy/test_likelihood.cpp keeps
// that loop as the oracle).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"

namespace lad {

class BinomialLikelihood {
 public:
  /// Floor on g_g(theta); see the file comment.
  static constexpr double kPFloor = 1e-300;

  class Bound;

  /// The model and gz table must outlive the kernel.
  BinomialLikelihood(const DeploymentModel& model, const GzTable& gz);

  /// Binds `obs`, which must have one count per group of the model.  With
  /// `caps` (one per group) the bound object sums the winsorised form
  /// max(term_g, -caps[g]), in which no group costs more than its cap;
  /// without, the plain sum.  The bound object reads the kernel, which must
  /// outlive it; it owns its scratch, so one is used by one thread at a time.
  Bound bind(const Observation& obs, std::span<const double> caps = {}) const;

 private:
  const DeploymentModel* model_;
  const GzTable* gz_;
  int m_;
  /// For k = 0..m: log_coef_[k] = log C(m, k) and
  /// floor_[k] = log_binomial_pmf(k, m, kPFloor).
  std::vector<double> log_coef_;
  std::vector<double> floor_;
};

class BinomialLikelihood::Bound {
 public:
  /// sum_g term_g(theta), each term capped when the bind had caps, in group
  /// order.
  double operator()(Vec2 theta);

  /// term_g(theta) = log Binom(o_g; m, max(g_g(theta), kPFloor)), uncapped.
  double term(std::size_t group, Vec2 theta) const;

 private:
  friend class BinomialLikelihood;

  /// What group g's term needs beyond g_g(theta).
  struct Row {
    int count;
    double log_coef;  ///< log C(m, count); -inf for a count outside [0, m]
    double floored;   ///< the term when g_g(theta) < kPFloor
    double neg_cap;   ///< -caps[g], or -inf without caps
  };

  explicit Bound(const BinomialLikelihood& kernel) : kernel_(&kernel) {}
  double term_at(const Row& row, double p) const;

  const BinomialLikelihood* kernel_;
  std::vector<Row> rows_;
  /// Scratch: g_g(theta) of every group for the current operator() call.
  std::vector<double> p_;
};

/// The best point a search found and its objective value (a
/// log-likelihood for every caller in the tree).
struct SearchResult {
  Vec2 at;
  double ll;
};

/// Coarse-to-fine pattern search maximising `objective` over `field`.
/// From `start`, each round tries the 8-neighbour 3x3 stencil at `pitch`
/// (E, W, N, S, then the diagonals), moving to every candidate that is a
/// strict improvement as soon as it is found; a round without one halves
/// the pitch, and the search stops once the pitch drops below `tol`.
/// Candidates are clamped into the field; `start` is used as given.
/// Memoised through `scored`, every point scored so far, newest last: a
/// point whose coordinates compare equal to one in it (so +0 and -0 are one
/// point) reuses that value instead of calling `objective` again, which the
/// stencil does after every move.  Searches of one objective may share one
/// `scored` (a multi-start search passes the same vector to every start),
/// so no point is scored twice across them; it must never carry points of
/// another objective.  Returns the final centre and its value.
SearchResult pattern_search(const Aabb& field, Vec2 start, double pitch,
                            double tol,
                            const std::function<double(Vec2)>& objective,
                            std::vector<SearchResult>& scored);

}  // namespace lad
