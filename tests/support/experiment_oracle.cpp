#include "support/experiment_oracle.h"

#include <cstdint>
#include <memory>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/network.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/localizer.h"
#include "rng/rng.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"
#include "stats/roc.h"
#include "util/assert.h"

namespace lad {

ThresholdFit fit_threshold(Pipeline& pipeline, const LocalizerFactory& factory,
                           MetricKind metric, double fp_budget) {
  auto benign = pipeline.benign_scores(factory, {metric});
  return fit_threshold(metric, benign.at(metric), fp_budget);
}

std::vector<RocExperimentResult> run_roc_experiment(
    Pipeline& pipeline, const LocalizerFactory& factory,
    const std::vector<MetricKind>& metrics,
    const std::vector<AttackClass>& classes,
    const std::vector<double>& damages, double compromised_frac) {
  LAD_REQUIRE_MSG(!metrics.empty() && !classes.empty() && !damages.empty(),
                  "empty experiment grid");
  auto benign = pipeline.benign_scores(factory, metrics);

  std::vector<RocExperimentResult> out;
  for (MetricKind metric : metrics) {
    for (AttackClass cls : classes) {
      for (double d : damages) {
        AttackSpec spec;
        spec.metric = metric;
        spec.attack_class = cls;
        spec.damage = d;
        spec.compromised_frac = compromised_frac;
        const std::vector<double> attack = pipeline.attack_scores(spec);
        out.push_back({metric, cls, d, compromised_frac,
                       RocCurve(benign.at(metric), attack)});
      }
    }
  }
  return out;
}

std::vector<DrPoint> run_dr_sweep(Pipeline& pipeline,
                                  const LocalizerFactory& factory,
                                  MetricKind metric, AttackClass attack_class,
                                  const std::vector<double>& damages,
                                  const std::vector<double>& compromised_fracs,
                                  double fp_budget) {
  const ThresholdFit fit = fit_threshold(pipeline, factory, metric, fp_budget);

  std::vector<DrPoint> out;
  for (double x : compromised_fracs) {
    for (double d : damages) {
      AttackSpec spec;
      spec.metric = metric;
      spec.attack_class = attack_class;
      spec.damage = d;
      spec.compromised_frac = x;
      const std::vector<double> attack = pipeline.attack_scores(spec);
      out.push_back({d, x, fraction_above(attack, fit.threshold()),
                     fit.realized_fp, fit.threshold()});
    }
  }
  return out;
}

double reference_mean_localization_error(const Pipeline& pipeline,
                                         const LocalizerFactory& factory) {
  // The pipeline's benign sub-stream and its victim draw (in-field
  // rejection, 256 tries), restated here so the reference shares no code
  // with the pass it checks.
  constexpr std::uint64_t kStreamBenign = 0x42454e49ull;  // "BENI"
  const PipelineConfig& cfg = pipeline.config();
  const Aabb field = cfg.deploy.field();
  const auto draw_victim = [&](const Network& net, Rng& rng) {
    for (int tries = 0; tries < 256; ++tries) {
      const std::size_t node =
          static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
      if (!cfg.victims_in_field_only || field.contains(net.position(node))) {
        return node;
      }
    }
    return static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  };

  const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
  double sum = 0.0;
  for (std::size_t ni = 0; ni < pipeline.networks().size(); ++ni) {
    const Network& net = *pipeline.networks()[ni];
    Rng rng = Rng::stream(cfg.seed ^ kStreamBenign, ni);
    const std::uint64_t loc_seed = rng.bits();
    std::vector<std::size_t> victims(k);
    for (std::size_t& node : victims) node = draw_victim(net, rng);
    const std::unique_ptr<Localizer> localizer = factory(loc_seed);
    localizer->prepare(net);
    double total = 0.0;
    for (std::size_t node : victims) {
      total += distance(localizer->localize(net, node), net.position(node));
    }
    sum += total / static_cast<double>(k);
  }
  return sum / static_cast<double>(pipeline.networks().size());
}

}  // namespace lad
