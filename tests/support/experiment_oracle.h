// The direct experiment runners of Figs. 4-8, kept as an independent
// oracle for the scenario runner: the end-to-end paper-claim tests and
// ScenarioRunner.DrSweepMatchesTheDirectEntryPoint compare against them.
//
//  Fig. 4  run_roc_experiment over metrics x damages (DR-FP-M-D)
//  Figs. 5/6  run_roc_experiment over attack classes x damages (DR-FP-T-D)
//  Fig. 7  run_dr_sweep over damages x compromise fractions (DR-D-x)
//  Fig. 8  run_dr_sweep over compromise fractions x damages (DR-x-D)
//
// Plus the sequential localization-error pass the Fig. 9 column used to
// run on its own, the reference for benign_scores' `mean_loc_error`.
#pragma once

#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "stats/roc.h"

namespace lad {

/// Convenience: runs the benign pass first, then trains.
ThresholdFit fit_threshold(Pipeline& pipeline, const LocalizerFactory& factory,
                           MetricKind metric, double fp_budget);

struct RocExperimentResult {
  MetricKind metric;
  AttackClass attack_class;
  double damage;
  double compromised_frac;
  RocCurve curve;
};

/// Shares one benign pass across all (metric, class, damage) combinations,
/// exactly as the paper's training step does.
std::vector<RocExperimentResult> run_roc_experiment(
    Pipeline& pipeline, const LocalizerFactory& factory,
    const std::vector<MetricKind>& metrics,
    const std::vector<AttackClass>& classes,
    const std::vector<double>& damages, double compromised_frac);

struct DrPoint {
  double damage;
  double compromised_frac;
  double detection_rate;
  double trained_fp;   ///< realized FP of the trained threshold (training set)
  double threshold;    ///< the trained threshold
};

/// Trains the threshold at the (1 - fp_budget) percentile of benign scores
/// (Section 5.5 with tau = 1 - FP), then sweeps attacks.
std::vector<DrPoint> run_dr_sweep(Pipeline& pipeline,
                                  const LocalizerFactory& factory,
                                  MetricKind metric, AttackClass attack_class,
                                  const std::vector<double>& damages,
                                  const std::vector<double>& compromised_fracs,
                                  double fp_budget);

/// Mean localization error |Le - La| of `factory`'s scheme over the benign
/// pass's victims, by its own sequential pass: per network, the benign
/// sub-stream's localizer seed then its victim draws, one localizer
/// prepared on the network, each victim localized in order; the mean per
/// network, then the mean of those.
double reference_mean_localization_error(const Pipeline& pipeline,
                                         const LocalizerFactory& factory);

}  // namespace lad
