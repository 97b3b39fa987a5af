#include "support/spec_describe.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace lad::test {

namespace {

std::string show(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string show(int v) { return std::to_string(v); }
std::string show(std::uint64_t v) { return std::to_string(v); }
std::string show(bool v) { return v ? "true" : "false"; }
std::string show(const std::string& v) { return "'" + v + "'"; }
std::string show(MetricKind v) { return metric_name(v); }
std::string show(AttackClass v) { return attack_class_name(v); }
std::string show(DeploymentShape v) { return deployment_shape_name(v); }
std::string show(ExperimentKind v) { return experiment_kind_name(v); }
std::string show(MismatchCoupling v) {
  return v == MismatchCoupling::kAxes ? "axes" : "product";
}
std::string show(GroupThresholdMode v) {
  return v == GroupThresholdMode::kGlobal ? "global" : "per_group";
}
std::string show(const std::optional<int>& v) {
  return v ? show(*v) : "(unset)";
}
template <class T>
std::string show(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + show(v[i]);
  }
  return out + "]";
}

}  // namespace

std::string describe(const ScenarioSpec& s) {
  std::ostringstream os;
  const auto line = [&os](const char* member, const std::string& value) {
    os << member << " = " << value << '\n';
  };
  line("name", show(s.name));
  line("title", show(s.title));
  line("note", show(s.note));
  line("kind", show(s.kind));
  const PipelineConfig& p = s.pipeline;
  line("pipeline.deploy.field_side", show(p.deploy.field_side));
  line("pipeline.deploy.grid_nx", show(p.deploy.grid_nx));
  line("pipeline.deploy.grid_ny", show(p.deploy.grid_ny));
  line("pipeline.deploy.nodes_per_group", show(p.deploy.nodes_per_group));
  line("pipeline.deploy.sigma", show(p.deploy.sigma));
  line("pipeline.deploy.radio_range", show(p.deploy.radio_range));
  line("pipeline.deploy.clamp_to_field", show(p.deploy.clamp_to_field));
  line("pipeline.networks", show(p.networks));
  line("pipeline.victims_per_network", show(p.victims_per_network));
  line("pipeline.seed", show(p.seed));
  line("pipeline.gz_omega", show(p.gz_omega));
  line("pipeline.threads", show(p.threads));
  line("pipeline.victims_in_field_only", show(p.victims_in_field_only));
  line("pipeline.shape", show(p.shape));
  line("pipeline.actual_sigma", show(p.actual_sigma));
  line("pipeline.deployment_jitter", show(p.deployment_jitter));
  line("quick.networks", show(s.quick.networks));
  line("quick.victims", show(s.quick.victims));
  line("quick.m", show(s.quick.m));
  line("quick.trials", show(s.quick.trials));
  line("quick.dvhop_trials", show(s.quick.dvhop_trials));
  line("quick.densities", show(s.quick.densities));
  line("shapes", show(s.shapes));
  line("localizers", show(s.localizers));
  line("metrics", show(s.metrics));
  line("attacks", show(s.attacks));
  line("damages", show(s.damages));
  line("compromised", show(s.compromised));
  line("densities", show(s.densities));
  line("actual_sigmas", show(s.actual_sigmas));
  line("jitters", show(s.jitters));
  line("mismatch_coupling", show(s.mismatch_coupling));
  line("group_threshold_modes", show(s.group_threshold_modes));
  line("fp_budget", show(s.fp_budget));
  line("tau", show(s.tau));
  line("group_min_samples", show(s.group_min_samples));
  line("bundle", show(s.bundle));
  line("jobs", show(s.jobs));
  line("fp_grid", show(s.fp_grid));
  line("curve_points", show(s.curve_points));
  line("loc_error", show(s.loc_error));
  line("trials", show(s.trials));
  line("pdf_grid", show(s.pdf_grid));
  line("omegas", show(s.omegas));
  line("lies", show(s.lies));
  line("dvhop_lies", show(s.dvhop_lies));
  line("dvhop_trials", show(s.dvhop_trials));
  line("echo_grid_x", show(s.echo_grid_x));
  line("echo_grid_y", show(s.echo_grid_y));
  line("echo_range", show(s.echo_range));
  line("taus", show(s.taus));
  line("fudges", show(s.fudges));
  line("evolve_rounds", show(s.evolve_rounds));
  line("evolve_step", show(s.evolve_step));
  line("evolve_initial", show(s.evolve_initial));
  line("coop_radius", show(s.coop_radius));
  line("coop_majority", show(s.coop_majority));
  line("train_samples", show(s.train_samples));
  return os.str();
}

}  // namespace lad::test
