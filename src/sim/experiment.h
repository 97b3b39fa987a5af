// The threshold trainer the scenario runner's experiment kinds share:
// every detection rate in Figs. 7-9 is measured against a threshold fit
// here, and Fig. 9's density items deploy through density_pipeline_config.
#pragma once

#include <vector>

#include "core/metric.h"
#include "core/trainer.h"
#include "sim/pipeline.h"

namespace lad {

/// A threshold trained at the (1 - fp_budget) percentile of benign scores
/// (Section 5.5 with tau = 1 - FP), plus the FP rate it realizes on the
/// training samples.  This is the single trainer path of the scenario
/// runner.
struct ThresholdFit {
  TrainingResult training;
  double realized_fp;  ///< FP of the trained threshold on the training set

  double threshold() const { return training.threshold; }
};

/// Trains from pre-collected benign scores.
ThresholdFit fit_threshold(MetricKind metric,
                           const std::vector<double>& benign_scores,
                           double fp_budget);

/// The per-density pipeline configuration of Fig. 9: density m with a
/// seed decorrelated from the base seed.
PipelineConfig density_pipeline_config(const PipelineConfig& base, int m);

}  // namespace lad
