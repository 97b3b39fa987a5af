// Stage replays for the traced run.
//
// Each helper re-runs one stage of a workload at t1 by calling the layers'
// public functions directly, with a span around every call, so the trace
// splits a workload's time by layer.  The replays draw their own victims
// from streams keyed by the benchmark, so they do the same amount of work
// as the real pass (same sizes, same counts) without needing the
// pipeline's private stream constants.
//
// Span names are the per-layer metric names without their unit suffix:
// deploy.gz_build, deploy.network_build, deploy.observe, loc.mle_estimate,
// deploy.expected_obs, core.score.<metric>, attack.taint, core.train,
// stats.roc, core.correct, core.check, sim.item, sim.csv_write, ...
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "sim/pipeline.h"
#include "trace.h"

namespace ladbench {

/// What Pipeline's constructor builds, rebuilt from deploy calls.
struct Deployed {
  std::unique_ptr<lad::DeploymentModel> model;
  std::unique_ptr<lad::GzTable> gz;
  std::vector<std::unique_ptr<lad::Network>> networks;
};

/// Inputs kept from a replay for the layer probes (a few of each).
struct Samples {
  static constexpr std::size_t kCap = 48;
  std::vector<lad::Observation> benign;
  std::vector<lad::Vec2> benign_le;
  std::vector<lad::Observation> tainted;
  std::vector<lad::Vec2> tainted_le;

  void keep_benign(const lad::Observation& o, lad::Vec2 le);
  void keep_tainted(const lad::Observation& o, lad::Vec2 le);
};

/// sim.pipeline_build { deploy.gz_build, deploy.network_build x N }.
Deployed replay_deploy(Tracer& tracer, const lad::PipelineConfig& cfg);

/// Pipeline::benign_scores: observe, localize (MLE), mu, score each
/// metric.  Adds the scored samples to `ops`.  A few victims per network
/// also run the shadow MLE search (see shadow_estimate).
std::vector<std::vector<double>> replay_benign(
    Tracer& tracer, const Deployed& d, const lad::PipelineConfig& cfg,
    const std::vector<lad::MetricKind>& metrics, Samples& samples,
    long long& ops);

/// Pipeline::mean_localization_error's localize pass (no scoring).
void replay_localize(Tracer& tracer, const Deployed& d,
                     const lad::PipelineConfig& cfg);

/// Pipeline::attack_scores: observe, mu at the planted Le, greedy taint,
/// score.  Adds the scored samples to `ops`.
std::vector<double> replay_attack(Tracer& tracer, const Deployed& d,
                                  const lad::PipelineConfig& cfg,
                                  const lad::AttackSpec& spec,
                                  Samples& samples, long long& ops);

/// Re-runs the MLE pattern search through the public log_likelihood and
/// log_binomial_pmf, timing both (loc.mle_loglik, stats.log_binomial) and
/// counting evaluations.  Counts loc.shadow_mismatch when the shadow does
/// not land on `expected` (the localizer's search changed).
void shadow_estimate(Tracer& tracer, const lad::DeploymentModel& model,
                     const lad::GzTable& gz, const lad::Observation& obs,
                     lad::Vec2 expected);

/// Times LocationCorrector::robust_log_likelihood and its log-binomial
/// terms at `theta` and its 8 stencil neighbours (core.robust_ll).
void shadow_robust_ll(Tracer& tracer, const lad::DeploymentModel& model,
                      const lad::GzTable& gz, const lad::Observation& obs,
                      lad::Vec2 theta);

/// Pipeline passes at threads 1 and 4 (sim.benign_pass.t<n>,
/// sim.attack_pass.t<n>, per victim).
void probe_sim_passes(Tracer& tracer, lad::PipelineConfig cfg);

/// Times, on the sampled inputs, every layer call the replay did not
/// reach, under the same span names; each probed name is recorded as the
/// count probe.<name>.
void probe_layers(Tracer& tracer, const lad::DeploymentModel& model,
                  const lad::GzTable& gz, const Samples& samples,
                  const std::string& out_dir);

}  // namespace ladbench
