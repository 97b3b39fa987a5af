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
// Cost.  Past the g(z) support radius g_g(theta) is 0, so the floored term
// depends on o_g alone; the kernel tabulates that row once per (model, gz)
// and a far group - roughly half of them at the paper's defaults - costs
// one table load instead of a log and a log1p.  Every term is the same
// function of the same inputs as a direct log_binomial_pmf call, summed in
// group order with the same floor test, so the result is bit-identical to
// the plain loop (tests/deploy/test_likelihood.cpp keeps that loop as the
// oracle).
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

  /// The model and gz table must outlive the kernel.
  BinomialLikelihood(const DeploymentModel& model, const GzTable& gz);

  /// log Binom(count; m, max(g_group(theta), kPFloor)).
  double term(int count, Vec2 theta, int group) const;

  /// sum_g term(o_g, theta, g), in group order.
  double log_likelihood(const Observation& obs, Vec2 theta) const;

  /// sum_g max(term(o_g, theta, g), -caps[g]), in group order: the
  /// winsorised form in which no group costs more than its cap.
  double capped_log_likelihood(const Observation& obs, Vec2 theta,
                               std::span<const double> caps) const;

 private:
  const DeploymentModel* model_;
  const GzTable* gz_;
  int m_;
  /// floor_[k] = log_binomial_pmf(k, m, kPFloor) for k = 0..m.
  std::vector<double> floor_;
};

/// Coarse-to-fine pattern search maximising `objective` over `field`.
/// From `start`, each round tries the 8-neighbour 3x3 stencil at `pitch`
/// (E, W, N, S, then the diagonals), moving to every candidate that is a
/// strict improvement as soon as it is found; a round without one halves
/// the pitch, and the search stops once the pitch drops below `tol`.
/// Candidates are clamped into the field; `start` is used as given.
Vec2 pattern_search(const Aabb& field, Vec2 start, double pitch, double tol,
                    const std::function<double(Vec2)>& objective);

}  // namespace lad
