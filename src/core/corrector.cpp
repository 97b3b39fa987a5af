#include "core/corrector.h"

#include <algorithm>
#include <limits>

#include "core/serialize.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/likelihood.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "util/assert.h"

namespace lad {

LocationCorrector::LocationCorrector(const DeploymentModel& model,
                                     const GzTable& gz, double penalty_cap,
                                     int seeds, double tol_meters)
    : model_(&model), likelihood_(model, gz), penalty_cap_(penalty_cap),
      seeds_(seeds), tol_meters_(tol_meters),
      group_caps_(static_cast<std::size_t>(model.num_groups()), penalty_cap) {
  LAD_REQUIRE_MSG(penalty_cap > 0, "penalty cap must be positive");
  LAD_REQUIRE_MSG(seeds >= 1, "need at least one search seed");
  LAD_REQUIRE_MSG(tol_meters > 0, "tolerance must be positive");
}

void LocationCorrector::apply_group_spread(const DetectorBundle& bundle) {
  LAD_REQUIRE_MSG(static_cast<int>(bundle.deployment_points.size()) ==
                      model_->num_groups(),
                  "bundle group count " << bundle.deployment_points.size()
                                        << " does not match the corrector's "
                                        << model_->num_groups() << " groups");
  const DetectorSpec& primary = bundle.primary();
  LAD_REQUIRE_MSG(primary.threshold > 0,
                  "per-group cap conditioning needs a positive global "
                  "threshold, got " << primary.threshold);
  group_caps_.assign(static_cast<std::size_t>(model_->num_groups()),
                     penalty_cap_);
  for (const GroupThreshold& g : primary.group_overrides) {
    LAD_REQUIRE_MSG(g.group >= 0 && g.group < model_->num_groups(),
                    "group override " << g.group << " out of range [0, "
                                      << model_->num_groups() << ")");
    LAD_REQUIRE_MSG(g.threshold > 0,
                    "per-group cap conditioning needs positive group "
                    "thresholds; group " << g.group << " has "
                                         << g.threshold);
    group_caps_[static_cast<std::size_t>(g.group)] =
        penalty_cap_ * (g.threshold / primary.threshold);
  }
}

double LocationCorrector::cap_for_group(int group) const {
  LAD_REQUIRE_MSG(group >= 0 && group < model_->num_groups(),
                  "group " << group << " out of range [0, "
                           << model_->num_groups() << ")");
  return group_caps_[static_cast<std::size_t>(group)];
}

double LocationCorrector::robust_log_likelihood(const Observation& obs,
                                                Vec2 theta) const {
  return likelihood_.bind(obs, group_caps_)(theta);
}

Vec2 LocationCorrector::max_prior_deployment_point() const {
  int best_group = 0;
  double best_density = -1.0;
  for (int g = 0; g < model_->num_groups(); ++g) {
    const Vec2 dp = model_->deployment_point(g);
    double density = 0.0;
    for (int k = 0; k < model_->num_groups(); ++k) {
      density += model_->pdf(k, dp);
    }
    if (density > best_density) {
      best_density = density;
      best_group = g;
    }
  }
  return model_->deployment_point(best_group);
}

CorrectionResult LocationCorrector::correct(const Observation& obs) const {
  BinomialLikelihood::Bound robust_ll = likelihood_.bind(obs, group_caps_);

  // Every group silenced: the observation carries no location evidence, so
  // a likelihood search is meaningless (and the observation-weighted
  // centroid seed is degenerate).  Defined behavior instead: fall back to
  // the deployment prior's densest point and flag every group as capped -
  // an all-silent neighborhood is exactly the all-groups-implausible case
  // the diagnostics describe.
  if (obs.total() == 0) {
    CorrectionResult result;
    result.corrected = max_prior_deployment_point();
    result.robust_ll = robust_ll(result.corrected);
    result.capped_groups.resize(obs.num_groups());
    for (std::size_t g = 0; g < obs.num_groups(); ++g) {
      result.capped_groups[g] = static_cast<int>(g);
    }
    return result;
  }

  // Multi-start seeds: weighted centroid + deployment points of the
  // highest-count groups (one of them sits near the true bump).
  std::vector<Vec2> starts;
  double wx = 0, wy = 0, wt = 0;
  std::vector<std::pair<int, int>> by_count;  // (count, group)
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    const Vec2 dp = model_->deployment_point(static_cast<int>(g));
    wx += obs.counts[g] * dp.x;
    wy += obs.counts[g] * dp.y;
    wt += obs.counts[g];
    if (obs.counts[g] > 0) {
      by_count.emplace_back(obs.counts[g], static_cast<int>(g));
    }
  }
  starts.push_back({wx / wt, wy / wt});
  std::sort(by_count.rbegin(), by_count.rend());
  for (int s = 0; s < seeds_ && s < static_cast<int>(by_count.size()); ++s) {
    starts.push_back(
        model_->deployment_point(by_count[static_cast<std::size_t>(s)].second));
  }

  const DeploymentConfig& cfg = model_->config();
  const Aabb field = cfg.field();
  const double pitch =
      cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny));
  const auto objective = [&](Vec2 theta) { return robust_ll(theta); };
  // One memo for every start: searches from different starts that climb
  // the same bump meet the same points, and each is scored once.
  std::vector<SearchResult> scored;
  SearchResult best{{}, -std::numeric_limits<double>::infinity()};
  for (const Vec2& seed : starts) {
    const SearchResult found = pattern_search(
        field, field.clamp(seed), pitch, tol_meters_, objective, scored);
    if (found.ll > best.ll) best = found;
  }

  CorrectionResult result;
  result.corrected = best.at;
  result.robust_ll = best.ll;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    if (robust_ll.term(g, best.at) <= -group_caps_[g]) {
      result.capped_groups.push_back(static_cast<int>(g));
    }
  }
  return result;
}

}  // namespace lad
