#include "replay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <sstream>

#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/corrector.h"
#include "core/fusion.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "geom/aabb.h"
#include "loc/beaconless_mle.h"
#include "loc/weighted_centroid.h"
#include "rng/rng.h"
#include "sim/scenario.h"
#include "stats/roc.h"
#include "stats/special.h"

namespace ladbench {

using namespace lad;

namespace {

// Stream keys of the replay's own draws ("BNET", "BBEN", "BATT").
constexpr std::uint64_t kReplayNetworks = 0x424e4554ull;
constexpr std::uint64_t kReplayBenign = 0x4242454eull;
constexpr std::uint64_t kReplayAttack = 0x42415454ull;

// Victims per network that also run the shadow MLE search.
constexpr std::size_t kShadowPerNetwork = 2;

std::size_t draw_victim(const Network& net, const PipelineConfig& cfg,
                        Rng& rng) {
  const Aabb field = cfg.deploy.field();
  for (int tries = 0; tries < 256; ++tries) {
    const std::size_t node =
        static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    if (!cfg.victims_in_field_only || field.contains(net.position(node))) {
      return node;
    }
  }
  return static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
}

/// Observations of `victims` on one network, under deploy.observe.
ObservationBatch observe(Tracer& tracer, const Network& net,
                         const std::vector<std::size_t>& victims) {
  ObservationBatch batch;
  {
    auto s = tracer.span("deploy.observe");
    net.observe_many(std::span<const std::size_t>(victims), batch);
  }
  tracer.add_count("deploy.observations", static_cast<double>(victims.size()));
  return batch;
}

double score_span(Tracer& tracer, const Metric& metric, const Observation& o,
                  const ExpectedObservation& mu, int m) {
  auto s = tracer.span(std::string("core.score.") + metric_name(metric.kind()));
  return metric.score(o, mu, m);
}

ExpectedObservation expected_span(Tracer& tracer, const DeploymentModel& model,
                                  const GzTable& gz, Vec2 le) {
  auto s = tracer.span("deploy.expected_obs");
  return model.expected_observation(le, gz);
}

/// Times log_binomial_pmf over every group at theta (p floored as the
/// likelihoods floor it) and returns the sum in the likelihood's order.
double timed_log_binomial_sum(Tracer& tracer, const DeploymentModel& model,
                              const GzTable& gz, const Observation& obs,
                              Vec2 theta) {
  const int m = model.config().nodes_per_group;
  std::vector<double> ps(obs.num_groups());
  for (std::size_t g = 0; g < ps.size(); ++g) {
    ps[g] = std::max(gz.at(theta, model.deployment_point(static_cast<int>(g))),
                     1e-300);
  }
  const std::int64_t t0 = now_ns();
  double ll = 0.0;
  for (std::size_t g = 0; g < ps.size(); ++g) {
    ll += log_binomial_pmf(obs.counts[g], m, ps[g]);
  }
  tracer.add_timed("stats.log_binomial", static_cast<double>(now_ns() - t0),
                   static_cast<long long>(ps.size()));
  return ll;
}

}  // namespace

void Samples::keep_benign(const Observation& o, Vec2 le) {
  if (benign.size() >= kCap) return;
  benign.push_back(o);
  benign_le.push_back(le);
}

void Samples::keep_tainted(const Observation& o, Vec2 le) {
  if (tainted.size() >= kCap) return;
  tainted.push_back(o);
  tainted_le.push_back(le);
}

Deployed replay_deploy(Tracer& tracer, const PipelineConfig& cfg) {
  auto s = tracer.span("sim.pipeline_build");
  Deployed d;
  d.model = std::make_unique<DeploymentModel>(
      DeploymentModel::make(cfg.shape, cfg.deploy, cfg.seed));
  {
    auto g = tracer.span("deploy.gz_build");
    d.gz = std::make_unique<GzTable>(
        GzParams{cfg.deploy.radio_range, cfg.deploy.sigma}, cfg.gz_omega);
  }
  for (int i = 0; i < cfg.networks; ++i) {
    auto n = tracer.span("deploy.network_build");
    Rng rng = Rng::stream(cfg.seed ^ kReplayNetworks,
                          static_cast<std::uint64_t>(i));
    d.networks.push_back(std::make_unique<Network>(*d.model, rng));
  }
  return d;
}

std::vector<std::vector<double>> replay_benign(
    Tracer& tracer, const Deployed& d, const PipelineConfig& cfg,
    const std::vector<MetricKind>& metrics, Samples& samples,
    long long& ops) {
  const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
  const int m = cfg.deploy.nodes_per_group;
  std::vector<std::unique_ptr<Metric>> impls;
  for (MetricKind kind : metrics) impls.push_back(make_metric(kind));
  std::vector<std::vector<double>> scores(metrics.size());
  const BeaconlessMleLocalizer mle(*d.model, *d.gz);

  for (std::size_t ni = 0; ni < d.networks.size(); ++ni) {
    const Network& net = *d.networks[ni];
    Rng rng = Rng::stream(cfg.seed ^ kReplayBenign, ni);
    std::vector<std::size_t> victims(k);
    for (std::size_t& v : victims) v = draw_victim(net, cfg, rng);
    const ObservationBatch batch = observe(tracer, net, victims);
    for (std::size_t v = 0; v < k; ++v) {
      const Observation obs = batch.to_observation(v);
      Vec2 le;
      {
        auto s = tracer.span("loc.mle_estimate");
        le = mle.estimate(obs);
      }
      const ExpectedObservation mu = expected_span(tracer, *d.model, *d.gz, le);
      for (std::size_t mi = 0; mi < impls.size(); ++mi) {
        scores[mi].push_back(score_span(tracer, *impls[mi], obs, mu, m));
      }
      ++ops;
      samples.keep_benign(obs, le);
      if (v < kShadowPerNetwork) {
        auto s = tracer.span("trace.shadow");
        shadow_estimate(tracer, *d.model, *d.gz, obs, le);
      }
    }
  }
  return scores;
}

void replay_localize(Tracer& tracer, const Deployed& d,
                     const PipelineConfig& cfg) {
  const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
  const BeaconlessMleLocalizer mle(*d.model, *d.gz);
  for (std::size_t ni = 0; ni < d.networks.size(); ++ni) {
    const Network& net = *d.networks[ni];
    Rng rng = Rng::stream(cfg.seed ^ kReplayBenign, ni);
    std::vector<std::size_t> victims(k);
    for (std::size_t& v : victims) v = draw_victim(net, cfg, rng);
    for (std::size_t v : victims) {
      Observation obs;
      {
        auto s = tracer.span("deploy.observe");
        obs = net.observe(v);
      }
      tracer.add_count("deploy.observations", 1);
      auto s = tracer.span("loc.mle_estimate");
      mle.estimate(obs);
    }
  }
}

std::vector<double> replay_attack(Tracer& tracer, const Deployed& d,
                                  const PipelineConfig& cfg,
                                  const AttackSpec& spec, Samples& samples,
                                  long long& ops) {
  const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
  const int m = cfg.deploy.nodes_per_group;
  const Aabb field = cfg.deploy.field();
  const std::unique_ptr<Metric> metric = make_metric(spec.metric);
  std::vector<double> scores;
  scores.reserve(d.networks.size() * k);
  for (std::size_t ni = 0; ni < d.networks.size(); ++ni) {
    const Network& net = *d.networks[ni];
    Rng rng = Rng::stream(cfg.seed ^ kReplayAttack, ni);
    std::vector<std::size_t> victims(k);
    std::vector<Vec2> les(k);
    for (std::size_t v = 0; v < k; ++v) {
      victims[v] = draw_victim(net, cfg, rng);
      les[v] = displaced_location(net.position(victims[v]), spec.damage, field,
                                  rng);
    }
    const ObservationBatch batch = observe(tracer, net, victims);
    for (std::size_t v = 0; v < k; ++v) {
      const Observation a = batch.to_observation(v);
      const ExpectedObservation mu =
          expected_span(tracer, *d.model, *d.gz, les[v]);
      const int budget =
          static_cast<int>(std::lround(spec.compromised_frac * a.total()));
      TaintResult taint;
      {
        auto s = tracer.span("attack.taint");
        taint = greedy_taint(a, mu, m, spec.metric, spec.attack_class, budget);
      }
      tracer.add_count("attack.budget", budget);
      tracer.add_count("attack.budget_spent", taint.budget_spent);
      scores.push_back(score_span(tracer, *metric, taint.tainted, mu, m));
      ++ops;
      samples.keep_tainted(taint.tainted, les[v]);
    }
  }
  return scores;
}

void shadow_estimate(Tracer& tracer, const DeploymentModel& model,
                     const GzTable& gz, const Observation& obs,
                     Vec2 expected) {
  // The search of BeaconlessMleLocalizer::estimate, step for step.
  const BeaconlessMleLocalizer mle(model, gz);
  const DeploymentConfig& cfg = model.config();
  const Aabb field = cfg.field();
  long long evals = 0;
  auto loglik = [&](Vec2 theta) {
    const std::int64_t t0 = now_ns();
    const double ll = mle.log_likelihood(obs, theta);
    tracer.add_timed("loc.mle_loglik", static_cast<double>(now_ns() - t0));
    ++evals;
    if (evals % 32 == 1 &&
        timed_log_binomial_sum(tracer, model, gz, obs, theta) != ll) {
      tracer.add_count("loc.shadow_mismatch", 1);
    }
    return ll;
  };
  Vec2 best = weighted_centroid_estimate(model, obs);
  double best_ll = loglik(best);
  double pitch = cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny));
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  while (pitch >= 0.5) {
    bool improved = false;
    for (const Vec2& dir : kDirs) {
      const Vec2 cand = field.clamp(best + dir * pitch);
      const double ll = loglik(cand);
      if (ll > best_ll) {
        best_ll = ll;
        best = cand;
        improved = true;
      }
    }
    if (!improved) pitch /= 2.0;
  }
  tracer.add_count("loc.shadow_estimates", 1);
  tracer.add_count("loc.shadow_loglik_evals", static_cast<double>(evals));
  if (!(best == expected)) tracer.add_count("loc.shadow_mismatch", 1);
}

void shadow_robust_ll(Tracer& tracer, const DeploymentModel& model,
                      const GzTable& gz, const Observation& obs, Vec2 theta) {
  const LocationCorrector corrector(model, gz);
  static constexpr std::array<Vec2, 9> kStencil = {
      Vec2{0, 0},  Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  const Aabb field = model.config().field();
  for (const Vec2& dir : kStencil) {
    const Vec2 at = field.clamp(theta + dir * 10.0);
    const std::int64_t t0 = now_ns();
    const double ll = corrector.robust_log_likelihood(obs, at);
    tracer.add_timed("core.robust_ll", static_cast<double>(now_ns() - t0));
    if (!std::isfinite(ll)) tracer.add_count("core.robust_ll_nonfinite", 1);
    timed_log_binomial_sum(tracer, model, gz, obs, at);
  }
}

void probe_sim_passes(Tracer& tracer, PipelineConfig cfg) {
  const double samples =
      static_cast<double>(cfg.networks) * cfg.victims_per_network;
  for (int threads : {1, 4}) {
    cfg.threads = threads;
    Pipeline pipeline(cfg);
    const LocalizerFactory factory =
        beaconless_mle_factory(pipeline.model(), pipeline.gz());
    const std::string t = ".t" + std::to_string(threads);
    std::int64_t t0 = now_ns();
    pipeline.benign_scores(factory, {MetricKind::kDiff});
    tracer.add_timed("sim.benign_pass" + t, static_cast<double>(now_ns() - t0),
                     static_cast<long long>(samples));
    t0 = now_ns();
    pipeline.attack_scores(AttackSpec{});
    tracer.add_timed("sim.attack_pass" + t, static_cast<double>(now_ns() - t0),
                     static_cast<long long>(samples));
  }
}

void probe_layers(Tracer& tracer, const DeploymentModel& model,
                  const GzTable& gz, const Samples& samples,
                  const std::string& out_dir) {
  const std::map<std::string, LayerStat> seen = tracer.summarize();
  const auto missing = [&](const std::string& name) {
    if (seen.count(name) != 0 || tracer.timed().count(name) != 0) return false;
    tracer.add_count("probe." + name, 1);
    return true;
  };
  const int m = model.config().nodes_per_group;
  // Untainted observations with their estimates, and tainted ones with the
  // planted Le; every workload's replay keeps at least one kind.
  const std::vector<Observation>& obs =
      samples.benign.empty() ? samples.tainted : samples.benign;
  const std::vector<Vec2>& les =
      samples.benign.empty() ? samples.tainted_le : samples.benign_le;
  const std::vector<Observation>& bad =
      samples.tainted.empty() ? samples.benign : samples.tainted;
  const std::vector<Vec2>& bad_les =
      samples.tainted.empty() ? samples.benign_le : samples.tainted_le;

  if (missing("loc.mle_estimate")) {
    const BeaconlessMleLocalizer mle(model, gz);
    for (const Observation& o : obs) {
      auto s = tracer.span("loc.mle_estimate");
      mle.estimate(o);
    }
  }
  if (missing("loc.mle_loglik")) {
    const BeaconlessMleLocalizer mle(model, gz);
    for (std::size_t i = 0; i < std::min<std::size_t>(2, obs.size()); ++i) {
      shadow_estimate(tracer, model, gz, obs[i], mle.estimate(obs[i]));
    }
  }
  if (missing("deploy.expected_obs")) {
    for (Vec2 le : les) expected_span(tracer, model, gz, le);
  }
  for (MetricKind kind :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    if (!missing(std::string("core.score.") + metric_name(kind))) continue;
    const std::unique_ptr<Metric> metric = make_metric(kind);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      score_span(tracer, *metric, obs[i], model.expected_observation(les[i], gz),
                 m);
    }
  }
  if (missing("attack.taint")) {
    Rng rng = Rng::stream(kReplayAttack, 0);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const Vec2 le = displaced_location(les[i], 120.0, model.config().field(),
                                         rng);
      const ExpectedObservation mu = model.expected_observation(le, gz);
      const int budget = static_cast<int>(std::lround(0.1 * obs[i].total()));
      TaintResult taint;
      {
        auto s = tracer.span("attack.taint");
        taint = greedy_taint(obs[i], mu, m, MetricKind::kDiff,
                             AttackClass::kDecBounded, budget);
      }
      tracer.add_count("attack.budget", budget);
      tracer.add_count("attack.budget_spent", taint.budget_spent);
    }
  }
  if (missing("core.correct")) {
    const LocationCorrector corrector(model, gz);
    for (std::size_t i = 0; i < std::min<std::size_t>(8, bad.size()); ++i) {
      auto s = tracer.span("core.correct");
      corrector.correct(bad[i]);
    }
  }
  if (missing("core.robust_ll")) {
    for (std::size_t i = 0; i < std::min<std::size_t>(4, bad.size()); ++i) {
      shadow_robust_ll(tracer, model, gz, bad[i], bad_les[i]);
    }
  }
  // Per-metric benign scores of the samples: inputs of the train, bundle
  // and ROC probes.
  std::vector<std::vector<double>> benign_scores(3), bad_scores(3);
  const std::array<MetricKind, 3> kinds = {
      MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb};
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::unique_ptr<Metric> metric = make_metric(kinds[k]);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      benign_scores[k].push_back(
          metric->score(obs[i], model.expected_observation(les[i], gz), m));
    }
    for (std::size_t i = 0; i < bad.size(); ++i) {
      bad_scores[k].push_back(
          metric->score(bad[i], model.expected_observation(bad_les[i], gz), m));
    }
  }
  if (missing("core.check")) {
    const FusionDetector detector(model, gz, 1.0, 1.0, 1.0);
    for (std::size_t i = 0; i < bad.size(); ++i) {
      auto s = tracer.span("core.check");
      detector.check(bad[i], bad_les[i]);
    }
  }
  std::vector<DetectorSpec> specs;
  const bool train = missing("core.train");
  {
    std::optional<Tracer::Scope> s;
    if (train) s.emplace(tracer, tracer.id("core.train"));
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      specs.push_back(detector_spec_from_training(
          train_thresholds(kinds[k], benign_scores[k], {0.95, 0.99}), 0.99));
    }
  }
  const DetectorBundle bundle =
      make_bundle(model, gz.omega(), std::move(specs));
  std::string bytes;
  {
    std::ostringstream os;
    const bool save = missing("core.bundle_save");
    std::optional<Tracer::Scope> s;
    if (save) s.emplace(tracer, tracer.id("core.bundle_save"));
    save_bundle(os, bundle);
    bytes = os.str();
  }
  if (missing("core.bundle_load")) {
    std::istringstream is(bytes);
    auto s = tracer.span("core.bundle_load");
    load_bundle(is);
  }
  if (missing("stats.roc")) {
    auto s = tracer.span("stats.roc");
    const RocCurve curve(benign_scores[0], bad_scores[0]);
    curve.auc();
  }
  if (missing("sim.csv_write")) {
    ScenarioResult result{"probe", {}};
    result.tables.push_back({"scores", Table({"benign", "tainted"}), {}});
    for (std::size_t i = 0; i < std::min(obs.size(), bad.size()); ++i) {
      result.tables[0].table.new_row().add(benign_scores[0][i], 4).add(
          bad_scores[0][i], 4);
      result.tables[0].row_items.push_back(static_cast<long long>(i));
    }
    auto s = tracer.span("sim.csv_write");
    write_result_csvs(result, out_dir);
  }
}

}  // namespace ladbench
