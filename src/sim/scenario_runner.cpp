// ScenarioRunner: expands a ScenarioSpec's cartesian product into an
// ordered work-item list and executes it (or one shard of it) through the
// existing Pipeline / experiment entry points.
//
// Work-item ids are assigned by iterating the expansion in a fixed order,
// so ids are identical in every shard of the same spec.  All randomness is
// keyed from the spec's seed (Philox-style sub-streams inside Pipeline;
// explicit per-item seeds in the bespoke kinds), never from execution
// order, which is what makes shard output placement-independent.
//
// Pipelines / benign passes / deployed networks are cached per runner and
// shared across the items that need them; because they are deterministic
// functions of (spec, seed), caching changes wall time only, never values.
#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/corrector.h"
#include "core/detector.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "loc/dvhop.h"
#include "loc/echo.h"
#include "loc/mmse.h"
#include "rng/rng.h"
#include "sim/experiment.h"
#include "sim/item_scheduler.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"
#include "stats/roc.h"
#include "stats/running_stats.h"
#include "stats/special.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/latched_cache.h"
#include "util/string_util.h"

namespace lad {

namespace {

/// The (actual_sigma, jitter) mismatch combinations a spec expands to.
std::vector<std::pair<double, double>> mismatch_pairs(const ScenarioSpec& s) {
  std::vector<std::pair<double, double>> pairs;
  if (s.mismatch_coupling == MismatchCoupling::kProduct) {
    for (double sigma : s.actual_sigmas) {
      for (double jitter : s.jitters) pairs.emplace_back(sigma, jitter);
    }
    return pairs;
  }
  // Axes mode: vary one axis at a time, the other held at its first value.
  // When both axes vary, the two passes are emitted back to back (the
  // baseline-ish row appears in each, matching the two-table mismatch
  // bench this mode reproduces).
  if (s.actual_sigmas.size() <= 1) {
    for (double jitter : s.jitters) {
      pairs.emplace_back(s.actual_sigmas.front(), jitter);
    }
    return pairs;
  }
  for (double sigma : s.actual_sigmas) {
    pairs.emplace_back(sigma, s.jitters.front());
  }
  if (s.jitters.size() > 1) {
    for (double jitter : s.jitters) {
      pairs.emplace_back(s.actual_sigmas.front(), jitter);
    }
  }
  return pairs;
}

std::string percent_label(double fp) {
  if (fp == 0.0) return "DR@FP=0";
  std::ostringstream os;
  os << fp * 100.0;
  return "DR@" + os.str() + "%";
}

std::string dr_at_damage_label(double d) {
  return "DR@D=" + format_double(d, 0);
}

/// Total work items in a spec's full expansion.  Shared by num_items()
/// and the per-kind empty-shard early-outs (a modulo shard owns at least
/// one item exactly when its index is below this total).
long long total_items(const ScenarioSpec& s) {
  const long long metrics = static_cast<long long>(s.metrics.size());
  const long long attacks = static_cast<long long>(s.attacks.size());
  const long long damages = static_cast<long long>(s.damages.size());
  const long long xs = static_cast<long long>(s.compromised.size());
  switch (s.kind) {
    case ExperimentKind::kRoc:
      return metrics * attacks * damages * xs;
    case ExperimentKind::kDrSweep:
      return static_cast<long long>(s.group_threshold_modes.size()) *
             static_cast<long long>(mismatch_pairs(s).size()) *
             static_cast<long long>(s.shapes.size()) *
             static_cast<long long>(s.localizers.size()) * metrics * attacks *
             xs * damages;
    case ExperimentKind::kDensitySweep:
      return static_cast<long long>(s.densities.size()) * metrics * attacks *
             xs * damages;
    case ExperimentKind::kDeploymentPdf:
      return 2;
    case ExperimentKind::kGzAccuracy:
      return static_cast<long long>(s.omegas.size());
    case ExperimentKind::kCorrection:
      return 1 + attacks * damages;
    case ExperimentKind::kEchoComparison:
      return 1 + damages;
    case ExperimentKind::kMetricFusion:
      return 1 + metrics;
    case ExperimentKind::kMmseVulnerability:
      return static_cast<long long>(s.lies.size()) +
             static_cast<long long>(s.dvhop_lies.size());
    case ExperimentKind::kThresholdSensitivity:
      return static_cast<long long>(s.taus.size()) +
             static_cast<long long>(s.fudges.size());
    case ExperimentKind::kTimeEvolving:
      return 1 + attacks * damages;
    case ExperimentKind::kInNetwork:
      return 1 + damages;
  }
  return 0;
}

/// True when `shard` owns no item at all - the caller returns its
/// header-only tables without building any shared state.
bool shard_is_empty(const ShardRange& shard, const ScenarioSpec& s) {
  return static_cast<long long>(shard.index) >= total_items(s);
}

/// The result-table ids each kind emits, in emission order.  Must stay in
/// sync with the run_* builders below (guarded by a unit test that runs a
/// spec of each kind and compares).
std::vector<std::string> table_ids_for(const ScenarioSpec& s) {
  switch (s.kind) {
    case ExperimentKind::kRoc:
      if (s.curve_points > 0) return {"summary", "curves"};
      return {"summary"};
    case ExperimentKind::kDrSweep: return {"dr"};
    case ExperimentKind::kDensitySweep: return {"density"};
    case ExperimentKind::kDeploymentPdf: return {"surface", "radial"};
    case ExperimentKind::kGzAccuracy: return {"gz"};
    case ExperimentKind::kCorrection: return {"benign_floor", "correction"};
    case ExperimentKind::kEchoComparison: return {"meta", "echo"};
    case ExperimentKind::kMetricFusion: return {"benign", "fusion"};
    case ExperimentKind::kMmseVulnerability: return {"mmse", "dvhop"};
    case ExperimentKind::kThresholdSensitivity: return {"tau", "fudge"};
    case ExperimentKind::kTimeEvolving: return {"meta", "evolve"};
    case ExperimentKind::kInNetwork: return {"fp", "coop"};
  }
  LAD_REQUIRE_MSG(false, "invalid experiment kind");
  return {};  // unreachable
}

}  // namespace

struct ScenarioRunner::Impl {
  ScenarioSpec spec;

  /// One shared benign pass: per-metric scores plus each sample's victim
  /// group (the per-group threshold modes bucket by it).
  struct BenignPass {
    std::map<MetricKind, std::vector<double>> scores;
    std::vector<int> victim_groups;
  };

  // --- shared deterministic state (lazy; values never depend on which
  //     items run, only the spec).  Latched caches: concurrent work items
  //     (jobs > 1) wanting the same key build it exactly once, and the
  //     sequential run fills them in the exact historical order.
  LatchedCache<Pipeline> pipelines;
  // (pipeline key | localizer) -> the shared benign pass
  LatchedCache<BenignPass> benign;
  LatchedCache<double> loc_errors;
  // threshold-sensitivity: per-damage attack scores on the base pipeline
  LatchedCache<std::vector<double>> attack_cache;
  // dr-sweep per_group mode: per-(pipeline|localizer|metric) boundary-group
  // fits - invariant across the attack/x/damage axes, so trained once.
  LatchedCache<std::vector<GroupTrainingResult>> group_fits;

  explicit Impl(const ScenarioSpec& s) : spec(s) {}

  PipelineConfig group_config(DeploymentShape shape, double actual_sigma,
                              double jitter) const {
    PipelineConfig cfg = spec.pipeline;
    cfg.shape = shape;
    cfg.actual_sigma = actual_sigma;
    cfg.deployment_jitter = jitter;
    return cfg;
  }

  static std::string config_key(const PipelineConfig& cfg) {
    std::ostringstream os;
    os << deployment_shape_name(cfg.shape) << "|m="
       << cfg.deploy.nodes_per_group << "|as=" << cfg.actual_sigma
       << "|j=" << cfg.deployment_jitter << "|seed=" << cfg.seed;
    return os.str();
  }

  Pipeline& pipeline_for(const PipelineConfig& cfg) {
    return pipelines.get(config_key(cfg),
                         [&] { return std::make_unique<Pipeline>(cfg); });
  }

  /// Benign scores for every spec metric under one (pipeline, localizer);
  /// per-metric values are independent of which metrics share the pass.
  const BenignPass& benign_for(Pipeline& pipeline,
                               const std::string& localizer) {
    const std::string key =
        config_key(pipeline.config()) + "|" + localizer;
    return benign.get(key, [&] {
      const LocalizerFactory factory =
          localizer_factory_from_name(localizer, pipeline);
      auto pass = std::make_unique<BenignPass>();
      pass->scores =
          pipeline.benign_scores(factory, spec.metrics, &pass->victim_groups);
      return pass;
    });
  }

  double loc_error_for(Pipeline& pipeline, const std::string& localizer) {
    const std::string key =
        config_key(pipeline.config()) + "|" + localizer;
    return loc_errors.get(key, [&] {
      const LocalizerFactory factory =
          localizer_factory_from_name(localizer, pipeline);
      return std::make_unique<double>(
          pipeline.mean_localization_error(factory));
    });
  }

  /// Boundary-group threshold fits for the per_group mode; a deterministic
  /// function of (pipeline, localizer, metric) given the spec's fp_budget
  /// and floor, so cached under that key.
  const std::vector<GroupTrainingResult>& group_fit_for(
      Pipeline& pipeline, const std::string& localizer, MetricKind metric,
      double global_threshold) {
    const std::string key = config_key(pipeline.config()) + "|" + localizer +
                            "|" + metric_name(metric);
    return group_fits.get(key, [&] {
      const BenignPass& pass = benign_for(pipeline, localizer);
      GroupTrainingOptions options;
      options.groups = boundary_groups(pipeline.model());
      options.min_samples = static_cast<std::size_t>(spec.group_min_samples);
      return std::make_unique<std::vector<GroupTrainingResult>>(
          train_group_thresholds(metric, pass.scores.at(metric),
                                 pass.victim_groups, options,
                                 1.0 - spec.fp_budget, global_threshold));
    });
  }

  const std::vector<double>& attack_scores_cached(Pipeline& pipeline,
                                                  const AttackSpec& spec_) {
    std::ostringstream key;
    key << spec_.damage;
    return attack_cache.get(key.str(), [&] {
      return std::make_unique<std::vector<double>>(
          pipeline.attack_scores(spec_));
    });
  }

  // --- per-kind execution ----------------------------------------------
  ScenarioResult run_roc(const ShardRange& shard);
  ScenarioResult run_dr(const ShardRange& shard);
  ScenarioResult run_density(const ShardRange& shard);
  ScenarioResult run_pdf(const ShardRange& shard);
  ScenarioResult run_gz(const ShardRange& shard);
  ScenarioResult run_correction(const ShardRange& shard);
  ScenarioResult run_echo(const ShardRange& shard);
  ScenarioResult run_fusion(const ShardRange& shard);
  ScenarioResult run_mmse(const ShardRange& shard);
  ScenarioResult run_threshold(const ShardRange& shard);
  ScenarioResult run_evolve(const ShardRange& shard);
  ScenarioResult run_coop(const ShardRange& shard);
};

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : impl_(std::make_unique<Impl>(spec)) {}

ScenarioRunner::~ScenarioRunner() = default;

long long ScenarioRunner::num_items() const {
  return total_items(impl_->spec);
}

std::vector<std::string> ScenarioRunner::table_ids() const {
  return table_ids_for(impl_->spec);
}

bool ScenarioRunner::output_complete(const std::string& dir,
                                     const ShardRange& shard,
                                     std::string* reason) const {
  namespace fs = std::filesystem;
  const auto incomplete = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  const long long total = num_items();
  std::set<long long> found;
  for (const std::string& id : table_ids()) {
    const fs::path path =
        fs::path(dir) / (impl_->spec.name + "." + id + ".csv");
    std::ifstream is(path);
    if (!is) return incomplete("missing " + path.string());
    std::string line;
    if (!std::getline(is, line)) {
      return incomplete("empty file " + path.string());
    }
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      const std::size_t comma = line.find(',');
      long long item = -1;
      try {
        item = parse_int(
            comma == std::string::npos ? line : line.substr(0, comma));
      } catch (const AssertionError&) {
        return incomplete("malformed row in " + path.string() + ": " + line);
      }
      if (item < 0 || item >= total || !shard.contains(item)) {
        return incomplete(path.string() + " holds rows for work item " +
                          std::to_string(item) +
                          ", which this shard does not own (different "
                          "--shard split?)");
      }
      found.insert(item);
    }
  }
  // Every work item emits at least one tagged row, so a shard is complete
  // exactly when every id it owns shows up somewhere - a header-only CSV
  // from a run killed after the header write therefore reads incomplete.
  for (long long i = shard.index; i < total;
       i += static_cast<long long>(shard.count)) {
    if (!found.count(i)) {
      return incomplete("no rows for work item " + std::to_string(i) +
                        " (run killed between header write and first "
                        "row?)");
    }
  }
  return true;
}

ScenarioResult ScenarioRunner::run(const ShardRange& shard) {
  LAD_REQUIRE_MSG(shard.count >= 1 && shard.index >= 0 &&
                      shard.index < shard.count,
                  "invalid shard range " << shard.index << "/" << shard.count);
  switch (impl_->spec.kind) {
    case ExperimentKind::kRoc: return impl_->run_roc(shard);
    case ExperimentKind::kDrSweep: return impl_->run_dr(shard);
    case ExperimentKind::kDensitySweep: return impl_->run_density(shard);
    case ExperimentKind::kDeploymentPdf: return impl_->run_pdf(shard);
    case ExperimentKind::kGzAccuracy: return impl_->run_gz(shard);
    case ExperimentKind::kCorrection: return impl_->run_correction(shard);
    case ExperimentKind::kEchoComparison: return impl_->run_echo(shard);
    case ExperimentKind::kMetricFusion: return impl_->run_fusion(shard);
    case ExperimentKind::kMmseVulnerability: return impl_->run_mmse(shard);
    case ExperimentKind::kThresholdSensitivity:
      return impl_->run_threshold(shard);
    case ExperimentKind::kTimeEvolving: return impl_->run_evolve(shard);
    case ExperimentKind::kInNetwork: return impl_->run_coop(shard);
  }
  LAD_REQUIRE_MSG(false, "invalid experiment kind");
  return {};  // unreachable
}

ScenarioResult ScenarioRunner::Impl::run_roc(const ShardRange& shard) {
  const bool many_metrics = spec.metrics.size() > 1;
  const bool many_attacks = spec.attacks.size() > 1;
  const bool many_xs = spec.compromised.size() > 1;

  std::vector<std::string> dims;
  if (many_metrics) dims.push_back("metric");
  if (many_attacks) dims.push_back("attack");
  dims.push_back("D");
  if (many_xs) dims.push_back("x");

  std::vector<std::string> summary_cols = dims;
  summary_cols.push_back("AUC");
  for (double fp : spec.fp_grid) summary_cols.push_back(percent_label(fp));
  std::vector<std::string> curve_cols = dims;
  curve_cols.push_back("FP");
  curve_cols.push_back("DR");

  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"summary", Table(summary_cols), {}});
  if (spec.curve_points > 0) {
    result.tables.push_back({"curves", Table(curve_cols), {}});
  }

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (MetricKind metric : spec.metrics) {
    for (AttackClass cls : spec.attacks) {
      for (double d : spec.damages) {
        for (double x : spec.compromised) {
          ++item;
          if (!shard.contains(item)) continue;
          sched.add(item, [this, metric, cls, d, x, many_metrics,
                           many_attacks, many_xs](ItemSink& sink) {
            Pipeline& pipeline = pipeline_for(
                group_config(spec.shapes.front(), spec.actual_sigmas.front(),
                             spec.jitters.front()));
            const std::vector<double>& benign_scores =
                benign_for(pipeline, spec.localizers.front())
                    .scores.at(metric);
            AttackSpec attack;
            attack.metric = metric;
            attack.attack_class = cls;
            attack.damage = d;
            attack.compromised_frac = x;
            const RocCurve curve(benign_scores,
                                 pipeline.attack_scores(attack));

            auto add_dims = [&](Table& t) -> Table& {
              if (many_metrics) t.add(metric_name(metric));
              if (many_attacks) t.add(attack_class_name(cls));
              t.add(d, 0);
              if (many_xs) t.add(x, 2);
              return t;
            };
            Table& row = add_dims(sink.row(0));
            row.add(curve.auc(), 4);
            for (double fp : spec.fp_grid) {
              row.add(curve.detection_rate_at_fp(fp), 4);
            }
            if (spec.curve_points > 0) {
              const auto& pts = curve.points();
              const std::size_t stride = std::max<std::size_t>(
                  1, pts.size() / static_cast<std::size_t>(spec.curve_points));
              for (std::size_t i = 0; i < pts.size(); i += stride) {
                add_dims(sink.row(1))
                    .add(pts[i].false_positive_rate, 5)
                    .add(pts[i].detection_rate, 5);
              }
            }
          });
        }
      }
    }
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_dr(const ShardRange& shard) {
  const auto pairs = mismatch_pairs(spec);
  const bool many_sigmas = spec.actual_sigmas.size() > 1;
  const bool many_jitters = spec.jitters.size() > 1;
  const bool many_shapes = spec.shapes.size() > 1;
  const bool many_locs = spec.localizers.size() > 1;
  const bool many_metrics = spec.metrics.size() > 1;
  const bool many_attacks = spec.attacks.size() > 1;
  const bool many_modes = spec.group_threshold_modes.size() > 1;
  // The boundary/interior split columns appear whenever the per_group mode
  // is in play - the whole point of the sweep is comparing the edge
  // against the (byte-identical) interior.
  const bool split_groups =
      std::find(spec.group_threshold_modes.begin(),
                spec.group_threshold_modes.end(),
                GroupThresholdMode::kPerGroup) !=
      spec.group_threshold_modes.end();

  std::vector<std::string> cols;
  if (many_modes) cols.push_back("group_mode");
  if (many_sigmas) cols.push_back("actual_sigma");
  if (many_jitters) cols.push_back("jitter");
  if (many_shapes) cols.push_back("shape");
  if (many_locs) cols.push_back("localizer");
  if (many_metrics) cols.push_back("metric");
  if (many_attacks) cols.push_back("attack");
  cols.push_back("x");
  cols.push_back("D");
  cols.push_back("DR");
  cols.push_back("trained_FP");
  cols.push_back("threshold");
  if (split_groups) {
    cols.insert(cols.end(),
                {"DR_interior", "DR_boundary", "FP_interior", "FP_boundary"});
  }
  if (spec.loc_error) cols.push_back("loc_error");

  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"dr", Table(cols), {}});

  // fraction of `scores` above its victim-group threshold, restricted to
  // samples whose group passes `keep` (empty selection -> 0).
  const auto rate_where = [](const std::vector<double>& scores,
                             const std::vector<int>& groups,
                             const std::vector<double>& thresholds,
                             const auto& keep) {
    std::size_t n = 0, above = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const int g = groups[i];
      if (!keep(g)) continue;
      ++n;
      if (scores[i] > thresholds[static_cast<std::size_t>(g)]) ++above;
    }
    return n == 0 ? 0.0
                  : static_cast<double>(above) / static_cast<double>(n);
  };

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (GroupThresholdMode mode : spec.group_threshold_modes) {
    for (const auto& pair : pairs) {
      const double actual_sigma = pair.first;
      const double jitter = pair.second;
      for (DeploymentShape shape : spec.shapes) {
        for (const std::string& localizer : spec.localizers) {
          for (MetricKind metric : spec.metrics) {
            for (AttackClass cls : spec.attacks) {
              for (double x : spec.compromised) {
                for (double d : spec.damages) {
                  ++item;
                  if (!shard.contains(item)) continue;
                  sched.add(item, [this, mode, actual_sigma, jitter, shape,
                                   localizer, metric, cls, x, d, many_modes,
                                   many_sigmas, many_jitters, many_shapes,
                                   many_locs, many_metrics, many_attacks,
                                   split_groups,
                                   &rate_where](ItemSink& sink) {
                    Pipeline& pipeline = pipeline_for(
                        group_config(shape, actual_sigma, jitter));
                    const BenignPass& benign_pass =
                        benign_for(pipeline, localizer);
                    const std::vector<double>& benign_scores =
                        benign_pass.scores.at(metric);
                    const ThresholdFit fit =
                        fit_threshold(metric, benign_scores, spec.fp_budget);
                    AttackSpec attack;
                    attack.metric = metric;
                    attack.attack_class = cls;
                    attack.damage = d;
                    attack.compromised_frac = x;
                    std::vector<int> attack_groups;
                    const std::vector<double> scores = pipeline.attack_scores(
                        attack, split_groups ? &attack_groups : nullptr);

                    // Per-group threshold vector: the pooled fit everywhere,
                    // boundary groups re-fitted on their own benign buckets
                    // in per_group mode (interior groups always keep the
                    // pooled value, which is what keeps their verdicts
                    // byte-identical across modes).
                    const std::size_t num_groups = static_cast<std::size_t>(
                        pipeline.model().num_groups());
                    std::vector<double> thresholds(num_groups,
                                                   fit.threshold());
                    std::vector<char> is_boundary(num_groups, 0);
                    if (split_groups) {
                      const std::vector<GroupTrainingResult>& fits =
                          group_fit_for(pipeline, localizer, metric,
                                        fit.threshold());
                      for (const GroupTrainingResult& r : fits) {
                        is_boundary[static_cast<std::size_t>(r.group)] = 1;
                        if (mode == GroupThresholdMode::kPerGroup) {
                          thresholds[static_cast<std::size_t>(r.group)] =
                              r.training.threshold;
                        }
                      }
                    }

                    Table& row = sink.row(0);
                    if (many_modes) row.add(group_threshold_mode_name(mode));
                    if (many_sigmas) row.add(actual_sigma, 1);
                    if (many_jitters) row.add(jitter, 1);
                    if (many_shapes) row.add(deployment_shape_name(shape));
                    if (many_locs) row.add(localizer);
                    if (many_metrics) row.add(metric_name(metric));
                    if (many_attacks) row.add(attack_class_name(cls));
                    row.add(x, 2).add(d, 0);
                    const auto all = [](int) { return true; };
                    if (mode == GroupThresholdMode::kPerGroup) {
                      row.add(rate_where(scores, attack_groups, thresholds,
                                         all),
                              4)
                          .add(rate_where(benign_scores, benign_pass.victim_groups,
                                          thresholds, all),
                               4);
                    } else {
                      row.add(fraction_above(scores, fit.threshold()), 4)
                          .add(fit.realized_fp, 4);
                    }
                    row.add(fit.threshold(), 2);
                    if (split_groups) {
                      const auto interior = [&](int g) {
                        return is_boundary[static_cast<std::size_t>(g)] == 0;
                      };
                      const auto boundary = [&](int g) {
                        return is_boundary[static_cast<std::size_t>(g)] != 0;
                      };
                      row.add(rate_where(scores, attack_groups, thresholds,
                                         interior),
                              4)
                          .add(rate_where(scores, attack_groups, thresholds,
                                          boundary),
                               4)
                          .add(rate_where(benign_scores, benign_pass.victim_groups,
                                          thresholds, interior),
                               4)
                          .add(rate_where(benign_scores, benign_pass.victim_groups,
                                          thresholds, boundary),
                               4);
                    }
                    if (spec.loc_error) {
                      row.add(loc_error_for(pipeline, localizer), 2);
                    }
                  });
                }
              }
            }
          }
        }
      }
    }
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_density(const ShardRange& shard) {
  const bool many_metrics = spec.metrics.size() > 1;
  const bool many_attacks = spec.attacks.size() > 1;

  std::vector<std::string> cols = {"m"};
  if (many_metrics) cols.push_back("metric");
  if (many_attacks) cols.push_back("attack");
  cols.insert(cols.end(), {"x", "D", "DR", "mle_loc_error", "threshold"});

  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"density", Table(cols), {}});

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (int m : spec.densities) {
    for (MetricKind metric : spec.metrics) {
      for (AttackClass cls : spec.attacks) {
        for (double x : spec.compromised) {
          for (double d : spec.damages) {
            ++item;
            if (!shard.contains(item)) continue;
            sched.add(item, [this, m, metric, cls, x, d, many_metrics,
                             many_attacks](ItemSink& sink) {
              // Each density re-deploys with the decorrelated per-m seed the
              // Fig. 9 sweep uses (density_pipeline_config).
              Pipeline& pipeline =
                  pipeline_for(density_pipeline_config(spec.pipeline, m));
              const std::string& localizer = spec.localizers.front();
              const ThresholdFit fit = fit_threshold(
                  metric, benign_for(pipeline, localizer).scores.at(metric),
                  spec.fp_budget);
              AttackSpec attack;
              attack.metric = metric;
              attack.attack_class = cls;
              attack.damage = d;
              attack.compromised_frac = x;
              const std::vector<double> scores =
                  pipeline.attack_scores(attack);

              Table& row = sink.row(0);
              row.add(m);
              if (many_metrics) row.add(metric_name(metric));
              if (many_attacks) row.add(attack_class_name(cls));
              row.add(x, 2)
                  .add(d, 0)
                  .add(fraction_above(scores, fit.threshold()), 4)
                  .add(loc_error_for(pipeline, localizer), 2)
                  .add(fit.threshold(), 2);
            });
          }
        }
      }
    }
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_pdf(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"surface", Table({"x", "y", "pdf"}), {}});
  result.tables.push_back(
      {"radial", Table({"distance_from_deployment_point", "pdf",
                        "fraction_within_distance"}),
       {}});

  const double sigma = spec.pipeline.deploy.sigma;
  const Vec2 dp{150.0, 150.0};  // the paper's Figure 2 group

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [this, sigma, dp](ItemSink& sink) {
      const int grid = spec.pdf_grid;
      for (int i = 0; i < grid; ++i) {
        for (int j = 0; j < grid; ++j) {
          const Vec2 p{300.0 * i / (grid - 1), 300.0 * j / (grid - 1)};
          sink.row(0)
              .add(p.x, 1)
              .add(p.y, 1)
              .add(gaussian2d_pdf_radial(distance(p, dp), sigma), 9);
        }
      }
    });
  }
  if (shard.contains(1)) {
    sched.add(1, [sigma](ItemSink& sink) {
      for (double r = 0.0; r <= 250.0; r += 25.0) {
        sink.row(1)
            .add(r, 0)
            .add(gaussian2d_pdf_radial(r, sigma), 9)
            .add(rayleigh_cdf(r, sigma), 6);
      }
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_gz(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"gz", Table({"omega", "max_abs_error", "max_mu_error_nodes",
                    "table_bytes"}),
       {}});
  const GzParams params{spec.pipeline.deploy.radio_range,
                        spec.pipeline.deploy.sigma};
  const int m = spec.pipeline.deploy.nodes_per_group;
  ItemScheduler sched(result, spec.jobs);
  for (std::size_t i = 0; i < spec.omegas.size(); ++i) {
    const long long item = static_cast<long long>(i);
    if (!shard.contains(item)) continue;
    const int omega = static_cast<int>(spec.omegas[i]);
    sched.add(item, [params, m, omega](ItemSink& sink) {
      const GzTable table(params, omega);
      const double err = table.max_abs_error(2000);
      sink.row(0)
          .add(omega)
          .add(err, 8)
          .add(err * m, 5)
          .add(static_cast<long long>((omega + 1) * sizeof(double)));
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_correction(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"benign_floor", Table({"mean_err", "max_err", "trials"}), {}});
  result.tables.push_back(
      {"correction",
       Table({"attack", "D", "err_accepting_Le", "err_corrected_mean",
              "err_corrected_p90", "recovered_frac"}),
       {}});
  if (shard_is_empty(shard, spec)) return result;

  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const std::uint64_t seed = spec.pipeline.seed;
  const double x = spec.compromised.front();
  const MetricKind target = spec.metrics.front();
  const int trials = spec.trials;

  const DeploymentModel model(dcfg);
  const GzTable gz({dcfg.radio_range, dcfg.sigma});
  // The deployed network consumes the head of Rng(seed); the benign-floor
  // item continues from the post-construction state, so the same network
  // and floor fall out of any shard that needs them.
  // lad-lint: allow(rng-construct) -- historical root stream for this
  // work item; re-keying would change every golden CSV.
  Rng rng(seed);
  const Network net(model, rng);
  const LocationCorrector corrector(model, gz);

  auto draw_in_field = [&](Rng& r) {
    std::size_t node;
    do {
      node = static_cast<std::size_t>(r.uniform_int(net.num_nodes()));
    } while (!dcfg.field().contains(net.position(node)));
    return node;
  };

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    // The benign-floor item continues the shared rng from its
    // post-Network-construction state; the closure owns a value copy so
    // the draw sequence matches the historical sequential run no matter
    // when (or on which thread) the item executes.
    sched.add(0, [rng, trials, &net, &corrector,
                  &draw_in_field](ItemSink& sink) {
      Rng floor_rng = rng;
      RunningStats floor;
      // Draw every floor sample first (identical rng call order), then one
      // observation batch over all of them.
      std::vector<std::size_t> nodes(static_cast<std::size_t>(trials));
      for (std::size_t t = 0; t < nodes.size(); ++t) {
        nodes[t] = draw_in_field(floor_rng);
      }
      ObservationBatch batch;
      net.observe_many(nodes, batch);
      for (std::size_t t = 0; t < nodes.size(); ++t) {
        floor.add(
            distance(corrector.correct(batch.to_observation(t)).corrected,
                     net.position(nodes[t])));
      }
      sink.row(0).add(floor.mean(), 1).add(floor.max(), 1).add(trials);
    });
  }

  long long item = 0;
  for (AttackClass cls : spec.attacks) {
    for (double d : spec.damages) {
      ++item;
      if (!shard.contains(item)) continue;
      sched.add(item, [item, cls, d, seed, trials, x, target, &net, &model,
                       &gz, &corrector, &dcfg,
                       &draw_in_field](ItemSink& sink) {
        std::vector<double> errs;
        // Keyed by item id, not by the (possibly fractional) damage value,
        // so distinct cells never share a stream.
        Rng trial_rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
        // Victim + Le draws first (same rng call order as the historical
        // per-trial loop), then a single observation batch.
        std::vector<std::size_t> nodes(static_cast<std::size_t>(trials));
        std::vector<Vec2> les(nodes.size());
        for (std::size_t t = 0; t < nodes.size(); ++t) {
          nodes[t] = draw_in_field(trial_rng);
          les[t] = displaced_location(net.position(nodes[t]), d, dcfg.field(),
                                      trial_rng);
        }
        ObservationBatch batch;
        net.observe_many(nodes, batch);
        for (std::size_t t = 0; t < nodes.size(); ++t) {
          const Observation a = batch.to_observation(t);
          const ExpectedObservation mu =
              model.expected_observation(les[t], gz);
          const TaintResult taint =
              greedy_taint(a, mu, dcfg.nodes_per_group, target, cls,
                           static_cast<int>(x * a.total()));
          errs.push_back(distance(corrector.correct(taint.tainted).corrected,
                                  net.position(nodes[t])));
        }
        double mean = 0.0;
        int recovered = 0;
        for (double e : errs) {
          mean += e;
          if (e < d / 2.0) ++recovered;  // "recovered": below half the damage
        }
        mean /= static_cast<double>(errs.size());
        std::sort(errs.begin(), errs.end());
        const double p90 =
            errs[static_cast<std::size_t>(
                0.9 * static_cast<double>(errs.size() - 1))];
        sink.row(1)
            .add(attack_class_name(cls))
            .add(d, 0)
            .add(d, 0)
            .add(mean, 1)
            .add(p90, 1)
            .add(static_cast<double>(recovered) / trials, 3);
      });
    }
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_echo(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"meta", Table({"echo_coverage", "lad_threshold"}), {}});
  result.tables.push_back(
      {"echo", Table({"D", "echo_rejected", "echo_accepted", "echo_uncovered",
                      "echo_DR", "lad_DR"}),
       {}});
  if (shard_is_empty(shard, spec)) return result;

  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const std::uint64_t seed = spec.pipeline.seed;
  const MetricKind metric = spec.metrics.front();
  const double x = spec.compromised.front();

  const DeploymentModel model(dcfg);
  const GzTable gz({dcfg.radio_range, dcfg.sigma});
  // lad-lint: allow(rng-construct) -- historical root stream for this
  // work item; re-keying would change every golden CSV.
  Rng rng(seed);
  const Network net(model, rng);
  const BeaconlessMleLocalizer localizer(model, gz);
  const EchoProtocol echo = EchoProtocol::grid(
      dcfg.field(), spec.echo_grid_x, spec.echo_grid_y, spec.echo_range);

  // Train LAD on benign samples (continues the shared rng, like the net).
  const std::unique_ptr<Metric> scorer = make_metric(metric);
  std::vector<double> benign_scores;
  std::vector<std::size_t> train_nodes(
      static_cast<std::size_t>(spec.echo_train_samples));
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    train_nodes[i] = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  }
  ObservationBatch train_batch;
  net.observe_many(train_nodes, train_batch);
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    const Observation obs = train_batch.to_observation(i);
    benign_scores.push_back(
        scorer->score(obs,
                      model.expected_observation(localizer.estimate(obs), gz),
                      dcfg.nodes_per_group));
  }
  const double threshold =
      train_threshold(metric, benign_scores, spec.tau).threshold;
  const Detector detector(model, gz, metric, threshold);

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [threshold, &echo, &dcfg](ItemSink& sink) {
      sink.row(0).add(echo.coverage(dcfg.field()), 3).add(threshold, 2);
    });
  }

  long long item = 0;
  for (double d : spec.damages) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, item, d, seed, metric, x, &net, &model, &gz,
                     &echo, &detector, &dcfg](ItemSink& sink) {
      int rejected = 0, accepted = 0, uncovered = 0, lad_detected = 0;
      // Keyed by item id (see run_correction): damage values never collide
      // with each other or with the shared training stream.
      Rng trial_rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
      // Victim + claimed-location draws first (same rng call order), then
      // one observation batch over the trials.
      std::vector<std::size_t> nodes(static_cast<std::size_t>(spec.trials));
      std::vector<Vec2> claims(nodes.size());
      for (std::size_t t = 0; t < nodes.size(); ++t) {
        std::size_t node;
        do {
          node =
              static_cast<std::size_t>(trial_rng.uniform_int(net.num_nodes()));
        } while (!dcfg.field().contains(net.position(node)));
        nodes[t] = node;
        claims[t] =
            displaced_location(net.position(node), d, dcfg.field(), trial_rng);
      }
      ObservationBatch batch;
      net.observe_many(nodes, batch);
      for (std::size_t t = 0; t < nodes.size(); ++t) {
        const Vec2 la = net.position(nodes[t]);
        const Vec2 claimed = claims[t];

        // The attacker may stretch the echo (delay >= 0) but never shrink
        // it; testing the honest echo plus one large delay covers the
        // attacker's whole strategy space.
        int verdict = echo.verify(claimed, la, 0.0);
        if (verdict == -1) {
          verdict = echo.verify(claimed, la, 10.0) == 1 ? 1 : -1;
        }
        if (verdict == 0) ++uncovered;
        else if (verdict == 1) ++accepted;
        else ++rejected;

        const Observation a = batch.to_observation(t);
        const ExpectedObservation mu = model.expected_observation(claimed, gz);
        const TaintResult taint = greedy_taint(
            a, mu, dcfg.nodes_per_group, metric, spec.attacks.front(),
            static_cast<int>(x * a.total()));
        if (detector.check(taint.tainted, claimed).anomaly) ++lad_detected;
      }
      sink.row(1)
          .add(d, 0)
          .add(rejected)
          .add(accepted)
          .add(uncovered)
          .add(static_cast<double>(rejected) / spec.trials, 3)
          .add(static_cast<double>(lad_detected) / spec.trials, 3);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_fusion(const ShardRange& shard) {
  std::vector<std::string> cols = {"attacker_targets"};
  for (MetricKind k : spec.metrics) {
    cols.push_back(std::string("DR_") + metric_name(k));
  }
  cols.push_back("DR_fusion");

  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"benign", Table({"fused_FP", "tau"}), {}});
  result.tables.push_back({"fusion", Table(cols), {}});
  if (shard_is_empty(shard, spec)) return result;

  Pipeline& pipeline = pipeline_for(group_config(
      spec.shapes.front(), spec.actual_sigmas.front(), spec.jitters.front()));
  const auto& benign_scores =
      benign_for(pipeline, spec.localizers.front()).scores;

  // Thresholds always travel through a DetectorBundle - the unit the CLI
  // ships to sensors - either loaded from the spec's saved artifact
  // ([detector] bundle = path) or captured in memory from the same
  // training the historical inline path ran.  Either way the ablation
  // exercises the deployment surface, not a parallel code path.
  DetectorBundle bundle;
  if (!spec.bundle.empty()) {
    bundle = load_bundle_file(spec.bundle);
    // The artifact's thresholds are only meaningful against the score
    // distribution of the deployment they were trained on; a mismatched
    // bundle would silently skew every FP/DR column (fail-fast contract).
    LAD_REQUIRE_MSG(
        bundle.config == pipeline.model().config() &&
            bundle.deployment_points == pipeline.model().deployment_points() &&
            bundle.gz_omega == pipeline.config().gz_omega,
        "bundle '" << spec.bundle
                   << "' was trained on a different deployment than this "
                      "scenario's [pipeline]");
  } else {
    std::vector<DetectorSpec> sections;
    sections.reserve(spec.metrics.size());
    for (MetricKind k : spec.metrics) {
      sections.push_back(detector_spec_from_training(
          {train_threshold(k, benign_scores.at(k), spec.tau)}, spec.tau));
    }
    bundle =
        make_bundle(pipeline.model(), pipeline.config().gz_omega,
                    std::move(sections));
  }
  std::map<MetricKind, double> thresholds;
  for (MetricKind k : spec.metrics) {
    const DetectorSpec* section = find_detector(bundle, k);
    LAD_REQUIRE_MSG(section != nullptr,
                    "bundle '" << spec.bundle
                               << "' has no [detector] section for metric '"
                               << metric_name(k) << "'");
    thresholds[k] = section->threshold;
  }
  const double d = spec.damages.front();
  const double x = spec.compromised.front();

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [this, &benign_scores, &thresholds](ItemSink& sink) {
      const std::size_t n = benign_scores.begin()->second.size();
      int fused_fp = 0;
      for (std::size_t i = 0; i < n; ++i) {
        bool any = false;
        for (MetricKind k : spec.metrics) {
          if (benign_scores.at(k)[i] > thresholds.at(k)) any = true;
        }
        if (any) ++fused_fp;
      }
      sink.row(0)
          .add(static_cast<double>(fused_fp) / static_cast<double>(n), 4)
          .add(spec.tau, 3);
    });
  }

  long long item = 0;
  for (MetricKind target : spec.metrics) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, target, d, x, &pipeline,
                     &thresholds](ItemSink& sink) {
      AttackSpec attack;
      attack.metric = target;
      attack.attack_class = spec.attacks.front();
      attack.damage = d;
      attack.compromised_frac = x;
      const auto cross = pipeline.attack_scores_cross(attack, spec.metrics);

      Table& row = sink.row(1).add(metric_name(target));
      std::vector<char> fused_hit(cross.begin()->second.size(), 0);
      for (MetricKind scorer : spec.metrics) {
        const auto& scores = cross.at(scorer);
        row.add(fraction_above(scores, thresholds.at(scorer)), 4);
        for (std::size_t i = 0; i < scores.size(); ++i) {
          if (scores[i] > thresholds.at(scorer)) fused_hit[i] = 1;
        }
      }
      int hits = 0;
      for (char h : fused_hit) hits += h;
      row.add(
          static_cast<double>(hits) / static_cast<double>(fused_hit.size()),
          4);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_mmse(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"mmse", Table({"lie_m", "mmse_mean_err", "mmse_max_err"}), {}});
  result.tables.push_back({"dvhop", Table({"lie_m", "dvhop_mean_err"}), {}});

  const std::uint64_t seed = spec.pipeline.seed;

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (double lie : spec.lies) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, item, lie, seed](ItemSink& sink) {
      // Per-item keyed stream: shard placement cannot perturb the draws.
      Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
      RunningStats err;
      for (int trial = 0; trial < spec.trials; ++trial) {
        const Vec2 truth{rng.uniform(100, 900), rng.uniform(100, 900)};
        std::vector<Vec2> refs = {
            {100, 100}, {900, 100}, {100, 900}, {900, 900}};
        std::vector<double> dists;
        for (const Vec2& r : refs) dists.push_back(distance(truth, r));
        const double theta = rng.uniform(0.0, 2 * M_PI);
        refs[0] = polar_offset(refs[0], lie, theta);
        const auto res = mmse_multilaterate(refs, dists);
        if (res) err.add(distance(res->position, truth));
      }
      sink.row(0).add(lie, 0).add(err.mean(), 2).add(err.max(), 2);
    });
  }

  // DV-Hop end-to-end on one deployed network (deterministic shared state).
  const DeploymentModel model(spec.pipeline.deploy);
  // lad-lint: allow(rng-construct) -- historical seed+1 stream of the
  // shared DV-Hop network; re-keying would change the golden CSV.
  Rng net_rng(seed + 1);
  const Network net(model, net_rng);
  for (double lie : spec.dvhop_lies) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, lie, seed, &net](ItemSink& sink) {
      // Each item owns its DvHopLocalizer (prepare/compromise mutate it)
      // and re-rolls the same victim picks from seed + 2, exactly like the
      // historical per-lie loop.
      DvHopLocalizer dvhop(3, 3);
      dvhop.prepare(net);
      if (lie > 0) {
        dvhop.compromise_anchor(0, polar_offset({167, 167}, lie, 0.7));
      }
      RunningStats err;
      // lad-lint: allow(rng-construct) -- historical per-lie victim
      // stream (seed + 2); re-keying would change the golden CSV.
      Rng pick(seed + 2);
      for (int trial = 0; trial < spec.dvhop_trials; ++trial) {
        const std::size_t node =
            static_cast<std::size_t>(pick.uniform_int(net.num_nodes()));
        err.add(distance(dvhop.localize(net, node), net.position(node)));
      }
      sink.row(1).add(lie, 0).add(err.mean(), 2);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_threshold(const ShardRange& shard) {
  std::vector<std::string> cols = {"threshold", "FP"};
  for (double d : spec.damages) cols.push_back(dr_at_damage_label(d));
  std::vector<std::string> tau_cols = {"tau"};
  tau_cols.insert(tau_cols.end(), cols.begin(), cols.end());
  std::vector<std::string> fudge_cols = {"fudge"};
  fudge_cols.insert(fudge_cols.end(), cols.begin(), cols.end());

  ScenarioResult result{spec.name, {}};
  result.tables.push_back({"tau", Table(tau_cols), {}});
  result.tables.push_back({"fudge", Table(fudge_cols), {}});
  if (shard_is_empty(shard, spec)) return result;

  Pipeline& pipeline = pipeline_for(group_config(
      spec.shapes.front(), spec.actual_sigmas.front(), spec.jitters.front()));
  const MetricKind metric = spec.metrics.front();
  const std::vector<double>& benign_scores =
      benign_for(pipeline, spec.localizers.front()).scores.at(metric);

  auto attack_for = [&](double d) -> const std::vector<double>& {
    AttackSpec attack;
    attack.metric = metric;
    attack.attack_class = spec.attacks.front();
    attack.damage = d;
    attack.compromised_frac = spec.compromised.front();
    return attack_scores_cached(pipeline, attack);
  };
  auto emit = [&](Table& row, double threshold) {
    row.add(threshold, 2).add(fraction_above(benign_scores, threshold), 4);
    for (double d : spec.damages) {
      row.add(fraction_above(attack_for(d), threshold), 4);
    }
  };

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (double tau : spec.taus) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [tau, metric, &benign_scores, &emit](ItemSink& sink) {
      const TrainingResult r = train_threshold(metric, benign_scores, tau);
      emit(sink.row(0).add(tau, 3), r.threshold);
    });
  }
  const double base =
      spec.fudges.empty()
          ? 0.0
          : train_threshold(metric, benign_scores, spec.tau).threshold;
  for (double fudge : spec.fudges) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [fudge, base, &emit](ItemSink& sink) {
      emit(sink.row(1).add(fudge, 2), base * fudge);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_evolve(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"meta", Table({"lad_threshold", "rounds", "trials"}), {}});
  result.tables.push_back(
      {"evolve", Table({"attack", "D", "round", "corrupted", "DR"}), {}});
  if (shard_is_empty(shard, spec)) return result;

  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const std::uint64_t seed = spec.pipeline.seed;
  const MetricKind metric = spec.metrics.front();

  const DeploymentModel model(dcfg);
  const GzTable gz({dcfg.radio_range, dcfg.sigma});
  // lad-lint: allow(rng-construct) -- historical root stream for this
  // work item; re-keying would change every golden CSV.
  Rng rng(seed);
  const Network net(model, rng);
  const BeaconlessMleLocalizer localizer(model, gz);

  // Train LAD on benign samples (continues the shared rng, like run_echo);
  // the threshold stays fixed across rounds - only the attacker evolves.
  const std::unique_ptr<Metric> scorer = make_metric(metric);
  std::vector<double> benign_scores;
  std::vector<std::size_t> train_nodes(
      static_cast<std::size_t>(spec.evolve_train_samples));
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    train_nodes[i] = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  }
  ObservationBatch train_batch;
  net.observe_many(train_nodes, train_batch);
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    const Observation obs = train_batch.to_observation(i);
    benign_scores.push_back(
        scorer->score(obs,
                      model.expected_observation(localizer.estimate(obs), gz),
                      dcfg.nodes_per_group));
  }
  const double threshold =
      train_threshold(metric, benign_scores, spec.tau).threshold;
  const Detector detector(model, gz, metric, threshold);

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [this, threshold](ItemSink& sink) {
      sink.row(0).add(threshold, 2).add(spec.evolve_rounds).add(spec.trials);
    });
  }

  long long item = 0;
  for (AttackClass cls : spec.attacks) {
    for (double d : spec.damages) {
      ++item;
      if (!shard.contains(item)) continue;
      sched.add(item, [this, item, cls, d, seed, metric, &net, &model, &gz,
                       &detector, &dcfg](ItemSink& sink) {
        // Keyed by item id (see run_correction): (attack, damage) cells
        // never share a stream with each other or with training.
        Rng trial_rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
        // Victim + claimed-location draws first (one rng call order no
        // matter how rounds interleave), then one observation batch.
        std::vector<std::size_t> nodes(static_cast<std::size_t>(spec.trials));
        std::vector<Vec2> claims(nodes.size());
        for (std::size_t t = 0; t < nodes.size(); ++t) {
          std::size_t node;
          do {
            node = static_cast<std::size_t>(
                trial_rng.uniform_int(net.num_nodes()));
          } while (!dcfg.field().contains(net.position(node)));
          nodes[t] = node;
          claims[t] = displaced_location(net.position(node), d, dcfg.field(),
                                         trial_rng);
        }
        ObservationBatch batch;
        net.observe_many(nodes, batch);
        std::vector<ExpectedObservation> mus;
        mus.reserve(claims.size());
        for (const Vec2& claim : claims) {
          mus.push_back(model.expected_observation(claim, gz));
        }
        // Round r: the same victims re-assert the same claim, but the
        // attacker has corrupted `initial + r * step` beacons by now (the
        // greedy taint with a growing absolute budget is monotone, so
        // round r+1's taint extends round r's).
        for (int round = 0; round < spec.evolve_rounds; ++round) {
          const int corrupted = spec.evolve_initial + round * spec.evolve_step;
          int detected = 0;
          for (std::size_t t = 0; t < nodes.size(); ++t) {
            const TaintResult taint =
                greedy_taint(batch.to_observation(t), mus[t],
                             dcfg.nodes_per_group, metric, cls, corrupted);
            if (detector.check(taint.tainted, claims[t]).anomaly) ++detected;
          }
          sink.row(1)
              .add(attack_class_name(cls))
              .add(d, 0)
              .add(round)
              .add(corrupted)
              .add(static_cast<double>(detected) / spec.trials, 3);
        }
      });
    }
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunner::Impl::run_coop(const ShardRange& shard) {
  ScenarioResult result{spec.name, {}};
  result.tables.push_back(
      {"fp",
       Table({"solo_FP", "node_FP", "coop_FP", "mean_voters"}),
       {}});
  result.tables.push_back(
      {"coop",
       Table({"D", "solo_DR", "node_DR", "coop_DR", "mean_voters"}),
       {}});
  if (shard_is_empty(shard, spec)) return result;

  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const std::uint64_t seed = spec.pipeline.seed;
  const MetricKind metric = spec.metrics.front();
  const AttackClass cls = spec.attacks.front();
  const double x = spec.compromised.front();

  const DeploymentModel model(dcfg);
  const GzTable gz({dcfg.radio_range, dcfg.sigma});
  // lad-lint: allow(rng-construct) -- historical root stream for this
  // work item; re-keying would change every golden CSV.
  Rng rng(seed);
  const Network net(model, rng);
  const BeaconlessMleLocalizer localizer(model, gz);

  // Train the solo LAD detector (continues the shared rng, like run_echo).
  const std::unique_ptr<Metric> scorer = make_metric(metric);
  std::vector<double> benign_scores;
  std::vector<std::size_t> train_nodes(
      static_cast<std::size_t>(spec.coop_train_samples));
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    train_nodes[i] = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  }
  ObservationBatch train_batch;
  net.observe_many(train_nodes, train_batch);
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    const Observation obs = train_batch.to_observation(i);
    benign_scores.push_back(
        scorer->score(obs,
                      model.expected_observation(localizer.estimate(obs), gz),
                      dcfg.nodes_per_group));
  }
  const double threshold =
      train_threshold(metric, benign_scores, spec.tau).threshold;
  const Detector detector(model, gz, metric, threshold);

  // One trial batch shared by the benign and every attack item: draw the
  // victims, observe, then vote.  `d < 0` means benign (claim = truth,
  // untainted observation).  Nodes within coop_radius of the CLAIMED
  // location vote, but only those with radio standing: a node expects to
  // hear the claimer when the claim is within the claimer's tx range
  // (receiver-perspective unit disk, deploy/network.h), and actually
  // hears it when the true position is.  Expectation != reality is an
  // anomalous vote; a node with neither (outside both disks) has no
  // evidence and abstains.  An honest claim makes the two disks coincide,
  // so the vote-level FP rate is exactly zero by construction, while a
  // displaced claim leaves both disks' occupants testifying against it.
  const auto run_trials = [this, seed, metric, cls, x, &net, &model, &gz,
                           &detector,
                           &dcfg](long long item, double d, Table& row) {
    Rng trial_rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
    std::vector<std::size_t> nodes(static_cast<std::size_t>(spec.trials));
    std::vector<Vec2> claims(nodes.size());
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      std::size_t node;
      do {
        node =
            static_cast<std::size_t>(trial_rng.uniform_int(net.num_nodes()));
      } while (!dcfg.field().contains(net.position(node)));
      nodes[t] = node;
      claims[t] = d < 0 ? net.position(node)
                        : displaced_location(net.position(node), d,
                                             dcfg.field(), trial_rng);
    }
    ObservationBatch batch;
    net.observe_many(nodes, batch);

    int solo = 0, coop = 0;
    long long votes = 0, anomalous_votes = 0, voters_total = 0;
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      const Observation a = batch.to_observation(t);
      if (d < 0) {
        if (detector.check(a, claims[t]).anomaly) ++solo;
      } else {
        const ExpectedObservation mu =
            model.expected_observation(claims[t], gz);
        const TaintResult taint =
            greedy_taint(a, mu, dcfg.nodes_per_group, metric, cls,
                         static_cast<int>(x * a.total()));
        if (detector.check(taint.tainted, claims[t]).anomaly) ++solo;
      }
      const std::vector<std::size_t> nearby =
          net.nodes_within(claims[t], spec.coop_radius, nodes[t]);
      long long standing = 0, bad = 0;
      for (std::size_t v : nearby) {
        const double range = net.tx_range(nodes[t]);
        const bool expected =
            distance(net.position(v), claims[t]) <= range;
        const bool actual =
            distance(net.position(v), net.position(nodes[t])) <= range;
        if (!expected && !actual) continue;  // no evidence either way
        ++standing;
        if (expected != actual) ++bad;
      }
      votes += standing;
      anomalous_votes += bad;
      voters_total += standing;
      if (standing > 0 &&
          static_cast<double>(bad) >=
              spec.coop_majority * static_cast<double>(standing)) {
        ++coop;
      }
    }
    const double trials = static_cast<double>(spec.trials);
    if (d >= 0) row.add(d, 0);
    row.add(solo / trials, 3)
        .add(votes == 0 ? 0.0
                        : static_cast<double>(anomalous_votes) /
                              static_cast<double>(votes),
             3)
        .add(coop / trials, 3)
        .add(static_cast<double>(voters_total) / trials, 1);
  };

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [&run_trials](ItemSink& sink) {
      run_trials(0, -1.0, sink.row(0));
    });
  }
  long long item = 0;
  for (double d : spec.damages) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [item, d, &run_trials](ItemSink& sink) {
      run_trials(item, d, sink.row(1));
    });
  }
  sched.run();
  return result;
}

}  // namespace lad
