#include "sim/experiment.h"

#include "core/metric.h"
#include "core/trainer.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"
#include "util/assert.h"

namespace lad {

ThresholdFit fit_threshold(MetricKind metric,
                           const std::vector<double>& benign_scores,
                           double fp_budget) {
  LAD_REQUIRE_MSG(fp_budget > 0 && fp_budget < 1, "FP budget must be in (0,1)");
  ThresholdFit fit{train_threshold(metric, benign_scores, 1.0 - fp_budget),
                   0.0};
  fit.realized_fp = fraction_above(benign_scores, fit.training.threshold);
  return fit;
}

PipelineConfig density_pipeline_config(const PipelineConfig& base, int m) {
  PipelineConfig cfg = base;
  cfg.deploy.nodes_per_group = m;
  // Decorrelate deployments across densities.
  cfg.seed = base.seed + static_cast<std::uint64_t>(m) * 0x9E37ull;
  return cfg;
}

}  // namespace lad
