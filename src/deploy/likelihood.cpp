#include "deploy/likelihood.h"

#include <algorithm>
#include <array>
#include <limits>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

BinomialLikelihood::BinomialLikelihood(const DeploymentModel& model,
                                       const GzTable& gz)
    : model_(&model), gz_(&gz), m_(model.config().nodes_per_group) {
  log_coef_.resize(static_cast<std::size_t>(m_) + 1);
  floor_.resize(static_cast<std::size_t>(m_) + 1);
  for (int k = 0; k <= m_; ++k) {
    log_coef_[static_cast<std::size_t>(k)] = log_binomial_coefficient(m_, k);
    floor_[static_cast<std::size_t>(k)] = log_binomial_pmf(k, m_, kPFloor);
  }
}

BinomialLikelihood::Bound BinomialLikelihood::bind(
    const Observation& obs, std::span<const double> caps) const {
  const std::size_t groups = static_cast<std::size_t>(model_->num_groups());
  LAD_REQUIRE_MSG(obs.num_groups() == groups,
                  "observation has " << obs.num_groups()
                                     << " groups; the model has " << groups);
  LAD_REQUIRE_MSG(caps.empty() || caps.size() == groups,
                  "caps size " << caps.size() << " does not match " << groups
                               << " groups");
  Bound bound(*this);
  bound.rows_.resize(groups);
  bound.p_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const int k = obs.counts[g];
    const bool possible = k >= 0 && k <= m_;
    const std::size_t i = static_cast<std::size_t>(k);
    bound.rows_[g] = {k, possible ? log_coef_[i] : kNegInf,
                      possible ? floor_[i] : kNegInf,
                      caps.empty() ? kNegInf : -caps[g]};
  }
  return bound;
}

// The term log_binomial_pmf(count, m, max(p, kPFloor)) would return, branch
// for branch.
double BinomialLikelihood::Bound::term_at(const Row& row, double p) const {
  if (p < kPFloor) return row.floored;
  LAD_REQUIRE_MSG(p <= 1.0, "binomial p must be in [0,1]");
  if (row.log_coef == kNegInf) return kNegInf;
  const int m = kernel_->m_;
  if (p == 1.0) return row.count == m ? 0.0 : kNegInf;
  return log_binomial_term(row.log_coef, row.count, m, p);
}

double BinomialLikelihood::Bound::operator()(Vec2 theta) {
  const std::vector<Vec2>& points = kernel_->model_->deployment_points();
  for (std::size_t g = 0; g < p_.size(); ++g) {
    p_[g] = kernel_->gz_->at(theta, points[g]);
  }
  double ll = 0.0;
  for (std::size_t g = 0; g < p_.size(); ++g) {
    ll += std::max(term_at(rows_[g], p_[g]), rows_[g].neg_cap);
  }
  return ll;
}

double BinomialLikelihood::Bound::term(std::size_t group, Vec2 theta) const {
  LAD_REQUIRE_MSG(group < rows_.size(),
                  "group " << group << " out of range");
  return term_at(rows_[group],
                 kernel_->gz_->at(theta, kernel_->model_->deployment_point(
                                             static_cast<int>(group))));
}

SearchResult pattern_search(const Aabb& field, Vec2 start, double pitch,
                            double tol,
                            const std::function<double(Vec2)>& objective) {
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  // Every point scored so far, newest last.  Most repeats are the old
  // centre and its neighbours, so the scan starts from the newest.
  std::vector<SearchResult> scored;
  const auto score = [&](Vec2 at) {
    for (auto it = scored.rbegin(); it != scored.rend(); ++it) {
      if (it->at == at) return it->ll;
    }
    scored.push_back({at, objective(at)});
    return scored.back().ll;
  };
  SearchResult best{start, score(start)};
  while (pitch >= tol) {
    bool improved = false;
    for (const Vec2& d : kDirs) {
      const Vec2 cand = field.clamp(best.at + d * pitch);
      const double ll = score(cand);
      if (ll > best.ll) {
        best = {cand, ll};
        improved = true;
      }
    }
    if (!improved) pitch /= 2.0;
  }
  return best;
}

}  // namespace lad
