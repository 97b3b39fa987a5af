#include "support/experiment_oracle.h"

#include "attack/adversary.h"
#include "core/metric.h"
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

}  // namespace lad
