#include "deploy/likelihood.h"

#include <algorithm>
#include <array>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {

BinomialLikelihood::BinomialLikelihood(const DeploymentModel& model,
                                       const GzTable& gz)
    : model_(&model), gz_(&gz), m_(model.config().nodes_per_group) {
  floor_.resize(static_cast<std::size_t>(m_) + 1);
  for (int k = 0; k <= m_; ++k) {
    floor_[static_cast<std::size_t>(k)] = log_binomial_pmf(k, m_, kPFloor);
  }
}

double BinomialLikelihood::term(int count, Vec2 theta, int group) const {
  double p = gz_->at(theta, model_->deployment_point(group));
  if (p < kPFloor) {
    if (count >= 0 && count <= m_) {
      return floor_[static_cast<std::size_t>(count)];
    }
    p = kPFloor;
  }
  return log_binomial_pmf(count, m_, p);
}

double BinomialLikelihood::log_likelihood(const Observation& obs,
                                          Vec2 theta) const {
  double ll = 0.0;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    ll += term(obs.counts[g], theta, static_cast<int>(g));
  }
  return ll;
}

double BinomialLikelihood::capped_log_likelihood(
    const Observation& obs, Vec2 theta, std::span<const double> caps) const {
  LAD_REQUIRE_MSG(caps.size() == obs.num_groups(),
                  "caps size " << caps.size() << " does not match "
                               << obs.num_groups() << " groups");
  double ll = 0.0;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    ll += std::max(term(obs.counts[g], theta, static_cast<int>(g)), -caps[g]);
  }
  return ll;
}

Vec2 pattern_search(const Aabb& field, Vec2 start, double pitch, double tol,
                    const std::function<double(Vec2)>& objective) {
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  Vec2 best = start;
  double best_ll = objective(best);
  while (pitch >= tol) {
    bool improved = false;
    for (const Vec2& d : kDirs) {
      const Vec2 cand = field.clamp(best + d * pitch);
      const double ll = objective(cand);
      if (ll > best_ll) {
        best_ll = ll;
        best = cand;
        improved = true;
      }
    }
    if (!improved) pitch /= 2.0;
  }
  return best;
}

}  // namespace lad
