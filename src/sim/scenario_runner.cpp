// ScenarioRunner and the experiment-kind table (sim/scenario_kinds.h).
//
// The runner is generic.  A spec's kind entry gives its result tables and
// its item layout; run() decodes every id the shard owns into a WorkItem
// (mixed radix, last-listed axis fastest) and schedules the entry's
// run_item on it.  Ids are a pure function of the spec, so they are the
// same in every shard.  All randomness is keyed from the spec's seed
// (Philox-style sub-streams inside Pipeline; explicit per-item streams in
// the bespoke kinds), never from execution order, which is what makes
// shard output placement-independent.
//
// What items share - pipelines, benign passes, the bespoke kinds' deployed
// network, g(z) table and solo detector - lives in KindState's latched
// caches: built by the first item that needs it and kept across run()
// calls.  Each is a deterministic function of (spec, key), so caching
// changes wall time only, never values.
#include "sim/scenario_kinds.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
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
#include "geom/aabb.h"
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
namespace detail {

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

/// The greedy taint of `a` toward `mu` with a budget of `x` of its beacons.
Observation tainted(const Observation& a, const ExpectedObservation& mu,
                    int m, MetricKind metric, AttackClass cls, double x) {
  return greedy_taint(a, mu, m, metric, cls, static_cast<int>(x * a.total()))
      .tainted;
}

/// `trials` victims drawn inside the field, each with the location it
/// claims (its true position displaced by `d`, or the truth when d < 0),
/// then observed in one batch.  Victim and claim draws interleave per
/// trial, the historical rng call order.
struct TrialBatch {
  std::vector<std::size_t> nodes;
  std::vector<Vec2> claims;
  ObservationBatch obs;
};

TrialBatch draw_trials(const Network& net, const Aabb& field, Rng& rng,
                       int trials, double d) {
  TrialBatch b;
  b.nodes.resize(static_cast<std::size_t>(trials));
  b.claims.resize(b.nodes.size());
  for (std::size_t t = 0; t < b.nodes.size(); ++t) {
    std::size_t node;
    do {
      node = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    } while (!field.contains(net.position(node)));
    b.nodes[t] = node;
    b.claims[t] = d < 0 ? net.position(node)
                        : displaced_location(net.position(node), d, field, rng);
  }
  net.observe_many(b.nodes, b.obs);
  return b;
}

/// Fraction of `scores` above its victim-group threshold, restricted to
/// samples whose group passes `keep` (empty selection -> 0).
template <class Keep>
double rate_where(const std::vector<double>& scores,
                  const std::vector<int>& groups,
                  const std::vector<double>& thresholds, const Keep& keep) {
  std::size_t n = 0, above = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const int g = groups[i];
    if (!keep(g)) continue;
    ++n;
    if (scores[i] > thresholds[static_cast<std::size_t>(g)]) ++above;
  }
  return n == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(n);
}

/// A network deployed from a root Rng, with that rng's state right after
/// the network consumed its head: the benign floor and the solo
/// detector's training continue from it.
struct Deployed {
  Deployed(const DeploymentConfig& cfg, Rng root)
      : model(cfg), rng(root), net(model, rng) {}
  DeploymentModel model;
  Rng rng;
  Network net;
};

}  // namespace

/// What the kinds' run_item bodies share within one runner: the spec and
/// every piece of state built lazily from it.  Latched caches: concurrent
/// work items (jobs > 1) wanting the same key build it exactly once, and
/// the sequential run fills them in the historical order.
struct KindState {
  explicit KindState(const ScenarioSpec& s) : spec(s) {}

  /// One shared benign pass: per-metric scores plus each sample's victim
  /// group (the per-group threshold modes bucket by it).
  struct BenignPass {
    std::map<MetricKind, std::vector<double>> scores;
    std::vector<int> victim_groups;
  };

  ScenarioSpec spec;
  LatchedCache<Pipeline> pipelines;
  // (pipeline key | localizer) -> the shared benign pass
  LatchedCache<BenignPass> benign;
  LatchedCache<double> loc_errors;
  // threshold-sensitivity: per-damage attack scores on the base pipeline
  LatchedCache<std::vector<double>> attack_cache;
  // dr-sweep per_group mode: per-(pipeline|localizer|metric) boundary-group
  // fits - invariant across the attack/x/damage axes, so trained once.
  LatchedCache<std::vector<GroupTrainingResult>> group_fits;
  // The bespoke kinds: the network deployed from a root seed, the g(z)
  // table at the spec's (R, sigma), and the solo LAD detector.
  LatchedCache<Deployed> deployed;
  LatchedCache<GzTable> gz_table;
  LatchedCache<Detector> solo;

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

  /// The pipeline at the first value of every deployment axis.
  Pipeline& base_pipeline() {
    return pipeline_for(group_config(spec.shapes.front(),
                                     spec.actual_sigmas.front(),
                                     spec.jitters.front()));
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

  /// The network deployed from Rng(seed) over the spec's deployment.
  const Deployed& deployed_for(std::uint64_t seed) {
    return deployed.get(std::to_string(seed), [&] {
      // lad-lint: allow(rng-construct) -- historical root stream of the
      // bespoke kinds' networks; re-keying would change every golden CSV.
      return std::make_unique<Deployed>(spec.pipeline.deploy, Rng(seed));
    });
  }

  /// Work item `id`'s trial batch (see draw_trials) on the network
  /// deployed from the spec's seed.  Its stream is keyed by the item id,
  /// not by the (possibly fractional) damage value, so distinct cells never
  /// share a stream with each other or with the solo detector's training.
  TrialBatch item_trials(long long id, double d) {
    Rng rng = Rng::stream(spec.pipeline.seed, static_cast<std::uint64_t>(id));
    return draw_trials(deployed_for(spec.pipeline.seed).net,
                       spec.pipeline.deploy.field(), rng, spec.trials, d);
  }

  const GzTable& gz() {
    return gz_table.get("gz", [&] {
      return std::make_unique<GzTable>(GzParams{
          spec.pipeline.deploy.radio_range, spec.pipeline.deploy.sigma});
    });
  }

  /// The solo LAD detector of echo, evolve and coop: the first metric's
  /// threshold trained at tau on `train_samples` benign nodes, drawn by
  /// continuing the rng of the network deployed from the spec's seed.
  const Detector& solo_detector() {
    return solo.get("solo", [&] {
      const Deployed& dep = deployed_for(spec.pipeline.seed);
      const MetricKind metric = spec.metrics.front();
      const BeaconlessMleLocalizer localizer(dep.model, gz());
      const std::unique_ptr<Metric> scorer = make_metric(metric);
      Rng rng = dep.rng;
      std::vector<std::size_t> nodes(
          static_cast<std::size_t>(spec.train_samples));
      for (std::size_t& node : nodes) {
        node = static_cast<std::size_t>(rng.uniform_int(dep.net.num_nodes()));
      }
      ObservationBatch batch;
      dep.net.observe_many(nodes, batch);
      std::vector<double> scores;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Observation obs = batch.to_observation(i);
        scores.push_back(scorer->score(
            obs, dep.model.expected_observation(localizer.estimate(obs), gz()),
            spec.pipeline.deploy.nodes_per_group));
      }
      return std::make_unique<Detector>(
          dep.model, gz(), metric,
          train_threshold(metric, scores, spec.tau).threshold);
    });
  }
};

namespace {

// --- roc: ROC curves over metric x attack x damage x x (Figs. 4-6) -----

std::vector<std::string> roc_dims(const ScenarioSpec& s) {
  std::vector<std::string> dims;
  if (s.metrics.size() > 1) dims.push_back("metric");
  if (s.attacks.size() > 1) dims.push_back("attack");
  dims.push_back("D");
  if (s.compromised.size() > 1) dims.push_back("x");
  return dims;
}

std::vector<TableDecl> roc_tables(const ScenarioSpec& s) {
  std::vector<std::string> summary = roc_dims(s);
  summary.push_back("AUC");
  for (double fp : s.fp_grid) summary.push_back(percent_label(fp));
  std::vector<TableDecl> tables = {{"summary", summary}};
  if (s.curve_points > 0) {
    std::vector<std::string> curves = roc_dims(s);
    curves.push_back("FP");
    curves.push_back("DR");
    tables.push_back({"curves", curves});
  }
  return tables;
}

void run_roc(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const MetricKind metric = spec.metrics[item.at[0]];
  const AttackClass cls = spec.attacks[item.at[1]];
  const double d = spec.damages[item.at[2]];
  const double x = spec.compromised[item.at[3]];
  Pipeline& pipeline = st.base_pipeline();
  const std::vector<double>& benign_scores =
      st.benign_for(pipeline, spec.localizers.front()).scores.at(metric);
  const RocCurve curve(benign_scores,
                       pipeline.attack_scores(AttackSpec{metric, cls, d, x}));

  auto add_dims = [&](Table& t) -> Table& {
    if (spec.metrics.size() > 1) t.add(metric_name(metric));
    if (spec.attacks.size() > 1) t.add(attack_class_name(cls));
    t.add(d, 0);
    if (spec.compromised.size() > 1) t.add(x, 2);
    return t;
  };
  Table& row = add_dims(sink.row(0));
  row.add(curve.auc(), 4);
  for (double fp : spec.fp_grid) row.add(curve.detection_rate_at_fp(fp), 4);
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
}

// --- dr-sweep: trained-threshold detection rates (Figs. 7/8) -----------

// The boundary/interior split columns appear whenever the per_group mode
// is in play - the whole point of the sweep is comparing the edge against
// the (byte-identical) interior.
bool splits_groups(const ScenarioSpec& s) {
  return std::find(s.group_threshold_modes.begin(),
                   s.group_threshold_modes.end(),
                   GroupThresholdMode::kPerGroup) !=
         s.group_threshold_modes.end();
}

std::vector<TableDecl> dr_tables(const ScenarioSpec& s) {
  std::vector<std::string> cols;
  if (s.group_threshold_modes.size() > 1) cols.push_back("group_mode");
  if (s.actual_sigmas.size() > 1) cols.push_back("actual_sigma");
  if (s.jitters.size() > 1) cols.push_back("jitter");
  if (s.shapes.size() > 1) cols.push_back("shape");
  if (s.localizers.size() > 1) cols.push_back("localizer");
  if (s.metrics.size() > 1) cols.push_back("metric");
  if (s.attacks.size() > 1) cols.push_back("attack");
  cols.insert(cols.end(), {"x", "D", "DR", "trained_FP", "threshold"});
  if (splits_groups(s)) {
    cols.insert(cols.end(),
                {"DR_interior", "DR_boundary", "FP_interior", "FP_boundary"});
  }
  if (s.loc_error) cols.push_back("loc_error");
  return {{"dr", cols}};
}

void run_dr(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const GroupThresholdMode mode = spec.group_threshold_modes[item.at[0]];
  const auto [actual_sigma, jitter] = mismatch_pairs(spec)[item.at[1]];
  const DeploymentShape shape = spec.shapes[item.at[2]];
  const std::string& localizer = spec.localizers[item.at[3]];
  const MetricKind metric = spec.metrics[item.at[4]];
  const AttackClass cls = spec.attacks[item.at[5]];
  const double x = spec.compromised[item.at[6]];
  const double d = spec.damages[item.at[7]];
  const bool split_groups = splits_groups(spec);

  Pipeline& pipeline =
      st.pipeline_for(st.group_config(shape, actual_sigma, jitter));
  const KindState::BenignPass& benign_pass = st.benign_for(pipeline, localizer);
  const std::vector<double>& benign_scores = benign_pass.scores.at(metric);
  const ThresholdFit fit = fit_threshold(metric, benign_scores, spec.fp_budget);
  std::vector<int> attack_groups;
  const std::vector<double> scores =
      pipeline.attack_scores(AttackSpec{metric, cls, d, x},
                             split_groups ? &attack_groups : nullptr);

  // Per-group threshold vector: the pooled fit everywhere, boundary groups
  // re-fitted on their own benign buckets in per_group mode (interior
  // groups always keep the pooled value, which is what keeps their
  // verdicts byte-identical across modes).
  const std::size_t num_groups =
      static_cast<std::size_t>(pipeline.model().num_groups());
  std::vector<double> thresholds(num_groups, fit.threshold());
  std::vector<char> is_boundary(num_groups, 0);
  if (split_groups) {
    for (const GroupTrainingResult& r :
         st.group_fit_for(pipeline, localizer, metric, fit.threshold())) {
      is_boundary[static_cast<std::size_t>(r.group)] = 1;
      if (mode == GroupThresholdMode::kPerGroup) {
        thresholds[static_cast<std::size_t>(r.group)] = r.training.threshold;
      }
    }
  }

  Table& row = sink.row(0);
  if (spec.group_threshold_modes.size() > 1) {
    row.add(group_threshold_mode_name(mode));
  }
  if (spec.actual_sigmas.size() > 1) row.add(actual_sigma, 1);
  if (spec.jitters.size() > 1) row.add(jitter, 1);
  if (spec.shapes.size() > 1) row.add(deployment_shape_name(shape));
  if (spec.localizers.size() > 1) row.add(localizer);
  if (spec.metrics.size() > 1) row.add(metric_name(metric));
  if (spec.attacks.size() > 1) row.add(attack_class_name(cls));
  row.add(x, 2).add(d, 0);
  const std::vector<int>& benign_groups = benign_pass.victim_groups;
  const auto all = [](int) { return true; };
  if (mode == GroupThresholdMode::kPerGroup) {
    row.add(rate_where(scores, attack_groups, thresholds, all), 4)
        .add(rate_where(benign_scores, benign_groups, thresholds, all), 4);
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
    row.add(rate_where(scores, attack_groups, thresholds, interior), 4)
        .add(rate_where(scores, attack_groups, thresholds, boundary), 4)
        .add(rate_where(benign_scores, benign_groups, thresholds, interior), 4)
        .add(rate_where(benign_scores, benign_groups, thresholds, boundary),
             4);
  }
  if (spec.loc_error) row.add(st.loc_error_for(pipeline, localizer), 2);
}

// --- density-sweep: re-deploy per density m (Fig. 9) -------------------

std::vector<TableDecl> density_tables(const ScenarioSpec& s) {
  std::vector<std::string> cols = {"m"};
  if (s.metrics.size() > 1) cols.push_back("metric");
  if (s.attacks.size() > 1) cols.push_back("attack");
  cols.insert(cols.end(), {"x", "D", "DR", "mle_loc_error", "threshold"});
  return {{"density", cols}};
}

void run_density(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const int m = spec.densities[item.at[0]];
  const MetricKind metric = spec.metrics[item.at[1]];
  const AttackClass cls = spec.attacks[item.at[2]];
  const double x = spec.compromised[item.at[3]];
  const double d = spec.damages[item.at[4]];
  // Each density re-deploys with the decorrelated per-m seed the Fig. 9
  // sweep uses (density_pipeline_config).
  Pipeline& pipeline =
      st.pipeline_for(density_pipeline_config(spec.pipeline, m));
  const std::string& localizer = spec.localizers.front();
  const ThresholdFit fit = fit_threshold(
      metric, st.benign_for(pipeline, localizer).scores.at(metric),
      spec.fp_budget);
  const std::vector<double> scores =
      pipeline.attack_scores(AttackSpec{metric, cls, d, x});

  Table& row = sink.row(0);
  row.add(m);
  if (spec.metrics.size() > 1) row.add(metric_name(metric));
  if (spec.attacks.size() > 1) row.add(attack_class_name(cls));
  row.add(x, 2)
      .add(d, 0)
      .add(fraction_above(scores, fit.threshold()), 4)
      .add(st.loc_error_for(pipeline, localizer), 2)
      .add(fit.threshold(), 2);
}

// --- deployment-pdf: the deployment pdf surface (Fig. 2) ---------------

void run_pdf(KindState& st, const WorkItem& item, ItemSink& sink) {
  const double sigma = st.spec.pipeline.deploy.sigma;
  if (item.block == 0) {
    const Vec2 dp{150.0, 150.0};  // the paper's Figure 2 group
    const int grid = st.spec.pdf_grid;
    for (int i = 0; i < grid; ++i) {
      for (int j = 0; j < grid; ++j) {
        const Vec2 p{300.0 * i / (grid - 1), 300.0 * j / (grid - 1)};
        sink.row(0)
            .add(p.x, 1)
            .add(p.y, 1)
            .add(gaussian2d_pdf_radial(distance(p, dp), sigma), 9);
      }
    }
    return;
  }
  for (double r = 0.0; r <= 250.0; r += 25.0) {
    sink.row(1)
        .add(r, 0)
        .add(gaussian2d_pdf_radial(r, sigma), 9)
        .add(rayleigh_cdf(r, sigma), 6);
  }
}

// --- gz-accuracy: g(z) table resolution ablation -----------------------

void run_gz(KindState& st, const WorkItem& item, ItemSink& sink) {
  const int omega = static_cast<int>(st.spec.omegas[item.at[0]]);
  const GzTable table({st.spec.pipeline.deploy.radio_range,
                       st.spec.pipeline.deploy.sigma},
                      omega);
  const double err = table.max_abs_error(2000);
  sink.row(0)
      .add(omega)
      .add(err, 8)
      .add(err * st.spec.pipeline.deploy.nodes_per_group, 5)
      .add(static_cast<long long>((omega + 1) * sizeof(double)));
}

// --- correction: trimmed-ML location correction ------------------------

void run_correction(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const Deployed& dep = st.deployed_for(spec.pipeline.seed);
  const LocationCorrector corrector(dep.model, st.gz());
  const auto error_after_correction = [&](const Observation& obs,
                                          std::size_t node) {
    return distance(corrector.correct(obs).corrected, dep.net.position(node));
  };

  if (item.block == 0) {
    // The benign floor continues the root rng from its post-deployment
    // state, so the same floor falls out of any shard that runs it.
    Rng floor_rng = dep.rng;
    const TrialBatch b =
        draw_trials(dep.net, dcfg.field(), floor_rng, spec.trials, -1.0);
    RunningStats floor;
    for (std::size_t t = 0; t < b.nodes.size(); ++t) {
      floor.add(error_after_correction(b.obs.to_observation(t), b.nodes[t]));
    }
    sink.row(0).add(floor.mean(), 1).add(floor.max(), 1).add(spec.trials);
    return;
  }

  const AttackClass cls = spec.attacks[item.at[0]];
  const double d = spec.damages[item.at[1]];
  const TrialBatch b = st.item_trials(item.id, d);
  std::vector<double> errs;
  for (std::size_t t = 0; t < b.nodes.size(); ++t) {
    const Observation a = b.obs.to_observation(t);
    const ExpectedObservation mu =
        dep.model.expected_observation(b.claims[t], st.gz());
    errs.push_back(error_after_correction(
        tainted(a, mu, dcfg.nodes_per_group, spec.metrics.front(), cls,
                spec.compromised.front()),
        b.nodes[t]));
  }
  double mean = 0.0;
  int recovered = 0;
  for (double e : errs) {
    mean += e;
    if (e < d / 2.0) ++recovered;  // "recovered": below half the damage
  }
  mean /= static_cast<double>(errs.size());
  std::sort(errs.begin(), errs.end());
  const double p90 = errs[static_cast<std::size_t>(
      0.9 * static_cast<double>(errs.size() - 1))];
  sink.row(1)
      .add(attack_class_name(cls))
      .add(d, 0)
      .add(d, 0)
      .add(mean, 1)
      .add(p90, 1)
      .add(static_cast<double>(recovered) / spec.trials, 3);
}

// --- echo-comparison: LAD vs the Echo protocol -------------------------

void run_echo(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const Detector& detector = st.solo_detector();
  const EchoProtocol echo = EchoProtocol::grid(
      dcfg.field(), spec.echo_grid_x, spec.echo_grid_y, spec.echo_range);
  if (item.block == 0) {
    sink.row(0)
        .add(echo.coverage(dcfg.field()), 3)
        .add(detector.threshold(), 2);
    return;
  }

  const double d = spec.damages[item.at[0]];
  const Deployed& dep = st.deployed_for(spec.pipeline.seed);
  const TrialBatch b = st.item_trials(item.id, d);
  int rejected = 0, accepted = 0, uncovered = 0, lad_detected = 0;
  for (std::size_t t = 0; t < b.nodes.size(); ++t) {
    const Vec2 la = dep.net.position(b.nodes[t]);
    const Vec2 claimed = b.claims[t];

    // The attacker may stretch the echo (delay >= 0) but never shrink it;
    // testing the honest echo plus one large delay covers the attacker's
    // whole strategy space.
    int verdict = echo.verify(claimed, la, 0.0);
    if (verdict == -1) verdict = echo.verify(claimed, la, 10.0) == 1 ? 1 : -1;
    if (verdict == 0) ++uncovered;
    else if (verdict == 1) ++accepted;
    else ++rejected;

    const ExpectedObservation mu =
        dep.model.expected_observation(claimed, st.gz());
    const Observation taint =
        tainted(b.obs.to_observation(t), mu, dcfg.nodes_per_group,
                spec.metrics.front(), spec.attacks.front(),
                spec.compromised.front());
    if (detector.check(taint, claimed).anomaly) ++lad_detected;
  }
  sink.row(1)
      .add(d, 0)
      .add(rejected)
      .add(accepted)
      .add(uncovered)
      .add(static_cast<double>(rejected) / spec.trials, 3)
      .add(static_cast<double>(lad_detected) / spec.trials, 3);
}

// --- metric-fusion: attacker-vs-detector fusion matrix -----------------

std::vector<TableDecl> fusion_tables(const ScenarioSpec& s) {
  std::vector<std::string> cols = {"attacker_targets"};
  for (MetricKind k : s.metrics) {
    cols.push_back(std::string("DR_") + metric_name(k));
  }
  cols.push_back("DR_fusion");
  return {{"benign", {"fused_FP", "tau"}}, {"fusion", cols}};
}

/// Per-metric thresholds.  They always travel through a DetectorBundle -
/// the unit the CLI ships to sensors - either loaded from the spec's saved
/// artifact ([detector] bundle = path) or captured in memory from the
/// same training the historical inline path ran.  Either way the ablation
/// exercises the deployment surface, not a parallel code path.
std::map<MetricKind, double> fusion_thresholds(KindState& st,
                                               Pipeline& pipeline) {
  const ScenarioSpec& spec = st.spec;
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
    const auto& benign_scores =
        st.benign_for(pipeline, spec.localizers.front()).scores;
    std::vector<DetectorSpec> sections;
    sections.reserve(spec.metrics.size());
    for (MetricKind k : spec.metrics) {
      sections.push_back(detector_spec_from_training(
          {train_threshold(k, benign_scores.at(k), spec.tau)}, spec.tau));
    }
    bundle = make_bundle(pipeline.model(), pipeline.config().gz_omega,
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
  return thresholds;
}

void run_fusion(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  Pipeline& pipeline = st.base_pipeline();
  const std::map<MetricKind, double> thresholds =
      fusion_thresholds(st, pipeline);
  if (item.block == 0) {
    const auto& benign_scores =
        st.benign_for(pipeline, spec.localizers.front()).scores;
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
    return;
  }

  const MetricKind target = spec.metrics[item.at[0]];
  const auto cross = pipeline.attack_scores_cross(
      AttackSpec{target, spec.attacks.front(), spec.damages.front(),
                 spec.compromised.front()},
      spec.metrics);
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
  row.add(static_cast<double>(hits) / static_cast<double>(fused_hit.size()),
          4);
}

// --- mmse-vulnerability: MMSE / DV-Hop single-anchor lies --------------

void run_mmse(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const std::uint64_t seed = spec.pipeline.seed;
  if (item.block == 0) {
    const double lie = spec.lies[item.at[0]];
    // Per-item keyed stream: shard placement cannot perturb the draws.
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(item.id));
    RunningStats err;
    for (int trial = 0; trial < spec.trials; ++trial) {
      const Vec2 truth{rng.uniform(100, 900), rng.uniform(100, 900)};
      std::vector<Vec2> refs = {{100, 100}, {900, 100}, {100, 900}, {900, 900}};
      std::vector<double> dists;
      for (const Vec2& r : refs) dists.push_back(distance(truth, r));
      const double theta = rng.uniform(0.0, 2 * M_PI);
      refs[0] = polar_offset(refs[0], lie, theta);
      const auto res = mmse_multilaterate(refs, dists);
      if (res) err.add(distance(res->position, truth));
    }
    sink.row(0).add(lie, 0).add(err.mean(), 2).add(err.max(), 2);
    return;
  }

  // DV-Hop end-to-end on the network deployed from seed + 1.  Each item
  // owns its DvHopLocalizer (prepare/compromise mutate it) and re-rolls
  // the same victim picks from seed + 2, exactly like the historical
  // per-lie loop.
  const double lie = spec.dvhop_lies[item.at[0]];
  const Network& net = st.deployed_for(seed + 1).net;
  DvHopLocalizer dvhop(3, 3);
  dvhop.prepare(net);
  if (lie > 0) dvhop.compromise_anchor(0, polar_offset({167, 167}, lie, 0.7));
  RunningStats err;
  // lad-lint: allow(rng-construct) -- historical per-lie victim stream
  // (seed + 2); re-keying would change the golden CSV.
  Rng pick(seed + 2);
  for (int trial = 0; trial < spec.dvhop_trials; ++trial) {
    const std::size_t node =
        static_cast<std::size_t>(pick.uniform_int(net.num_nodes()));
    err.add(distance(dvhop.localize(net, node), net.position(node)));
  }
  sink.row(1).add(lie, 0).add(err.mean(), 2);
}

// --- threshold-sensitivity: tau + miscalibration sweeps ----------------

std::vector<TableDecl> threshold_tables(const ScenarioSpec& s) {
  std::vector<std::string> tau_cols = {"tau", "threshold", "FP"};
  for (double d : s.damages) tau_cols.push_back("DR@D=" + format_double(d, 0));
  std::vector<std::string> fudge_cols = tau_cols;
  fudge_cols.front() = "fudge";
  return {{"tau", tau_cols}, {"fudge", fudge_cols}};
}

void run_threshold(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  Pipeline& pipeline = st.base_pipeline();
  const MetricKind metric = spec.metrics.front();
  const std::vector<double>& benign_scores =
      st.benign_for(pipeline, spec.localizers.front()).scores.at(metric);
  const auto emit = [&](Table& row, double threshold) {
    row.add(threshold, 2).add(fraction_above(benign_scores, threshold), 4);
    for (double d : spec.damages) {
      const std::vector<double>& scores = st.attack_scores_cached(
          pipeline, AttackSpec{metric, spec.attacks.front(), d,
                               spec.compromised.front()});
      row.add(fraction_above(scores, threshold), 4);
    }
  };
  if (item.block == 0) {
    const double tau = spec.taus[item.at[0]];
    emit(sink.row(0).add(tau, 3),
         train_threshold(metric, benign_scores, tau).threshold);
    return;
  }
  const double fudge = spec.fudges[item.at[0]];
  const double base =
      train_threshold(metric, benign_scores, spec.tau).threshold;
  emit(sink.row(1).add(fudge, 2), base * fudge);
}

// --- time-evolving: the attacker corrupts more beacons each round ------

void run_evolve(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  // The threshold stays fixed across rounds - only the attacker evolves.
  const Detector& detector = st.solo_detector();
  if (item.block == 0) {
    sink.row(0)
        .add(detector.threshold(), 2)
        .add(spec.evolve_rounds)
        .add(spec.trials);
    return;
  }

  const AttackClass cls = spec.attacks[item.at[0]];
  const double d = spec.damages[item.at[1]];
  const Deployed& dep = st.deployed_for(spec.pipeline.seed);
  const TrialBatch b = st.item_trials(item.id, d);
  std::vector<ExpectedObservation> mus;
  mus.reserve(b.claims.size());
  for (const Vec2& claim : b.claims) {
    mus.push_back(dep.model.expected_observation(claim, st.gz()));
  }
  // Round r: the same victims re-assert the same claim, but the attacker
  // has corrupted `initial + r * step` beacons by now (the greedy taint
  // with a growing absolute budget is monotone, so round r+1's taint
  // extends round r's).
  for (int round = 0; round < spec.evolve_rounds; ++round) {
    const int corrupted = spec.evolve_initial + round * spec.evolve_step;
    int detected = 0;
    for (std::size_t t = 0; t < b.nodes.size(); ++t) {
      const TaintResult taint =
          greedy_taint(b.obs.to_observation(t), mus[t], dcfg.nodes_per_group,
                       spec.metrics.front(), cls, corrupted);
      if (detector.check(taint.tainted, b.claims[t]).anomaly) ++detected;
    }
    sink.row(1)
        .add(attack_class_name(cls))
        .add(d, 0)
        .add(round)
        .add(corrupted)
        .add(static_cast<double>(detected) / spec.trials, 3);
  }
}

// --- in-network: neighbours vote on a claim, local majority ------------

// One trial batch per item: draw the victims, observe, then vote.  `d < 0`
// is the benign item (block 0): claim = truth, untainted observation.
// Nodes within coop_radius of the CLAIMED location vote, but only those
// with radio standing: a node expects to hear the claimer when the claim
// is within the claimer's tx range (receiver-perspective unit disk,
// deploy/network.h), and actually hears it when the true position is.
// Expectation != reality is an anomalous vote; a node with neither
// (outside both disks) has no evidence and abstains.  An honest claim
// makes the two disks coincide, so the vote-level FP rate is exactly zero
// by construction, while a displaced claim leaves both disks' occupants
// testifying against it.
void run_coop(KindState& st, const WorkItem& item, ItemSink& sink) {
  const ScenarioSpec& spec = st.spec;
  const DeploymentConfig& dcfg = spec.pipeline.deploy;
  const Detector& detector = st.solo_detector();
  const Deployed& dep = st.deployed_for(spec.pipeline.seed);
  const Network& net = dep.net;
  const double d = item.block == 0 ? -1.0 : spec.damages[item.at[0]];
  const TrialBatch b = st.item_trials(item.id, d);

  int solo = 0, coop = 0;
  long long votes = 0, anomalous_votes = 0, voters_total = 0;
  for (std::size_t t = 0; t < b.nodes.size(); ++t) {
    const Observation a = b.obs.to_observation(t);
    const Vec2 claim = b.claims[t];
    const Observation heard =
        d < 0 ? a
              : tainted(a, dep.model.expected_observation(claim, st.gz()),
                        dcfg.nodes_per_group, spec.metrics.front(),
                        spec.attacks.front(), spec.compromised.front());
    if (detector.check(heard, claim).anomaly) ++solo;
    long long standing = 0, bad = 0;
    const std::size_t node = b.nodes[t];
    for (std::size_t v : net.nodes_within(claim, spec.coop_radius, node)) {
      const double range = net.tx_range(node);
      const bool expected = distance(net.position(v), claim) <= range;
      const bool actual = distance(net.position(v), net.position(node)) <= range;
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
  Table& row = sink.row(item.block);
  if (d >= 0) row.add(d, 0);
  row.add(solo / trials, 3)
      .add(votes == 0 ? 0.0
                      : static_cast<double>(anomalous_votes) /
                            static_cast<double>(votes),
           3)
      .add(coop / trials, 3)
      .add(static_cast<double>(voters_total) / trials, 1);
}

}  // namespace

// --- the table --------------------------------------------------------

const std::vector<KindDecl>& experiment_kinds() {
  static const std::vector<KindDecl> kinds = {
      {ExperimentKind::kRoc, "roc", "",
       {"metrics", "attacks", "damages", "compromised"},
       {"[output] fp_grid", "[output] curve_points"},
       roc_tables,
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{s.metrics.size(), s.attacks.size(), s.damages.size(),
                  s.compromised.size()}};
       },
       run_roc},
      {ExperimentKind::kDrSweep, "dr-sweep", "",
       {"group_thresholds", "actual_sigmas", "jitters", "shapes", "localizers",
        "metrics", "attacks", "compromised", "damages"},
       {"[sweep] group_thresholds", "[detector] group_min_samples",
        "[output] loc_error"},
       dr_tables,
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{s.group_threshold_modes.size(), mismatch_pairs(s).size(),
                  s.shapes.size(), s.localizers.size(), s.metrics.size(),
                  s.attacks.size(), s.compromised.size(), s.damages.size()}};
       },
       run_dr},
      {ExperimentKind::kDensitySweep, "density-sweep", "",
       {"densities", "metrics", "attacks", "compromised", "damages"},
       {"[sweep] densities", "[quick] densities"},
       density_tables,
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{s.densities.size(), s.metrics.size(), s.attacks.size(),
                  s.compromised.size(), s.damages.size()}};
       },
       run_density},
      {ExperimentKind::kDeploymentPdf, "deployment-pdf", "pdf", {}, {},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"surface", {"x", "y", "pdf"}},
                 {"radial",
                  {"distance_from_deployment_point", "pdf",
                   "fraction_within_distance"}}};
       },
       [](const ScenarioSpec&) -> ItemLayout { return {{1}, {1}}; },
       run_pdf},
      {ExperimentKind::kGzAccuracy, "gz-accuracy", "gz", {}, {},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"gz",
                  {"omega", "max_abs_error", "max_mu_error_nodes",
                   "table_bytes"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout { return {{s.omegas.size()}}; },
       run_gz},
      {ExperimentKind::kCorrection, "correction", "correction",
       {"attacks", "damages"},
       {"[quick] trials"},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"benign_floor", {"mean_err", "max_err", "trials"}},
                 {"correction",
                  {"attack", "D", "err_accepting_Le", "err_corrected_mean",
                   "err_corrected_p90", "recovered_frac"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{1}, {s.attacks.size(), s.damages.size()}};
       },
       run_correction},
      {ExperimentKind::kEchoComparison, "echo-comparison", "echo",
       {"damages"},
       {"[quick] trials"},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"meta", {"echo_coverage", "lad_threshold"}},
                 {"echo",
                  {"D", "echo_rejected", "echo_accepted", "echo_uncovered",
                   "echo_DR", "lad_DR"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{1}, {s.damages.size()}};
       },
       run_echo},
      {ExperimentKind::kMetricFusion, "metric-fusion", "",
       {"metrics"},
       {"[detector] bundle"},
       fusion_tables,
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{1}, {s.metrics.size()}};
       },
       run_fusion},
      {ExperimentKind::kMmseVulnerability, "mmse-vulnerability", "mmse", {},
       {"[quick] trials", "[quick] dvhop_trials"},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"mmse", {"lie_m", "mmse_mean_err", "mmse_max_err"}},
                 {"dvhop", {"lie_m", "dvhop_mean_err"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{s.lies.size()}, {s.dvhop_lies.size()}};
       },
       run_mmse},
      {ExperimentKind::kThresholdSensitivity, "threshold-sensitivity",
       "threshold", {"damages"}, {},
       threshold_tables,
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{s.taus.size()}, {s.fudges.size()}};
       },
       run_threshold},
      {ExperimentKind::kTimeEvolving, "time-evolving", "evolve",
       {"attacks", "damages"},
       {"[quick] trials"},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"meta", {"lad_threshold", "rounds", "trials"}},
                 {"evolve", {"attack", "D", "round", "corrupted", "DR"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{1}, {s.attacks.size(), s.damages.size()}};
       },
       run_evolve},
      {ExperimentKind::kInNetwork, "in-network", "coop",
       {"damages"},
       {"[quick] trials"},
       [](const ScenarioSpec&) -> std::vector<TableDecl> {
         return {{"fp", {"solo_FP", "node_FP", "coop_FP", "mean_voters"}},
                 {"coop",
                  {"D", "solo_DR", "node_DR", "coop_DR", "mean_voters"}}};
       },
       [](const ScenarioSpec& s) -> ItemLayout {
         return {{1}, {s.damages.size()}};
       },
       run_coop},
  };
  return kinds;
}

namespace {

long long block_items(const std::vector<std::size_t>& block) {
  long long n = 1;
  for (std::size_t size : block) n *= static_cast<long long>(size);
  return n;
}

/// Decodes item `id` against `layout` (see sim/scenario_kinds.h).
WorkItem decode_item(const ItemLayout& layout, long long id) {
  WorkItem item;
  item.id = id;
  long long rest = id;
  for (const std::vector<std::size_t>& block : layout) {
    const long long n = block_items(block);
    if (rest < n) {
      item.at.resize(block.size());
      for (std::size_t a = block.size(); a-- > 0;) {
        const long long size = static_cast<long long>(block[a]);
        item.at[a] = static_cast<std::size_t>(rest % size);
        rest /= size;
      }
      return item;
    }
    rest -= n;
    ++item.block;
  }
  LAD_REQUIRE_MSG(false, "work item " << id << " is out of range");
  return item;  // unreachable
}

}  // namespace

const KindDecl& kind_decl(ExperimentKind kind) {
  const std::vector<KindDecl>& kinds = experiment_kinds();
  const std::size_t i = static_cast<std::size_t>(kind);
  LAD_REQUIRE_MSG(i < kinds.size() && kinds[i].kind == kind,
                  "invalid experiment kind");
  return kinds[i];
}

long long count_items(const ScenarioSpec& spec) {
  long long n = 0;
  for (const auto& block : kind_decl(spec.kind).layout(spec)) {
    n += block_items(block);
  }
  return n;
}

}  // namespace detail

struct ScenarioRunner::Impl : detail::KindState {
  using KindState::KindState;
};

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : impl_(std::make_unique<Impl>(spec)) {}

ScenarioRunner::~ScenarioRunner() = default;

long long ScenarioRunner::num_items() const {
  return detail::count_items(impl_->spec);
}

std::vector<std::string> ScenarioRunner::table_ids() const {
  std::vector<std::string> ids;
  const ScenarioSpec& spec = impl_->spec;
  for (const detail::TableDecl& t : detail::kind_decl(spec.kind).tables(spec)) {
    ids.push_back(t.id);
  }
  return ids;
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
  const ScenarioSpec& spec = impl_->spec;
  const detail::KindDecl& kind = detail::kind_decl(spec.kind);
  ScenarioResult result{spec.name, {}};
  for (const detail::TableDecl& t : kind.tables(spec)) {
    result.tables.push_back({t.id, Table(t.columns), {}});
  }
  const detail::ItemLayout layout = kind.layout(spec);
  const long long total = detail::count_items(spec);
  ItemScheduler sched(result, spec.jobs);
  for (long long id = shard.index; id < total; id += shard.count) {
    sched.add(id, [this, &kind, item = detail::decode_item(layout, id)](
                      ItemSink& sink) { kind.run_item(*impl_, item, sink); });
  }
  sched.run();
  return result;
}

}  // namespace lad
