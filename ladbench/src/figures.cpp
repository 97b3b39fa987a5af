// figures: the paper's own evaluation (Section 7, Figs. 4-9).
//
// Sizing: every spec runs at 2 networks x 50 victims (the specs default
// to 10 x 200) so that one pass takes under a second at t1 and a run
// repeats it many times; fig09 keeps its full density list, so networks
// of up to m = 1000 nodes per group are re-deployed in every pass.
#include <filesystem>
#include <set>

#include "replay.h"
#include "sim/experiment.h"
#include "stats/quantile.h"
#include "stats/roc.h"
#include "workloads.h"

namespace ladbench {

using namespace lad;

namespace {

const std::vector<std::string> kSpecs = {
    "fig04_roc_metrics",         "fig05_roc_attacks_small_d",
    "fig06_roc_attacks_large_d", "fig07_dr_vs_damage",
    "fig08_dr_vs_compromise",    "fig09_dr_vs_density"};

class Figures final : public Workload {
 public:
  explicit Figures(const Options& opts)
      : opts_(opts), dir_(opts.out + "/figures") {
    std::filesystem::create_directories(dir_);
  }

  /// Parses the specs and builds a Pipeline at each distinct base
  /// configuration the specs declare (before the benchmark's resizing).
  void setup() override {
    std::set<std::string> built;
    for (const std::string& name : kSpecs) {
      const ScenarioSpec spec = load_spec(opts_, name, opts_.threads);
      const PipelineConfig& c = spec.pipeline;
      const std::string key = std::to_string(c.deploy.nodes_per_group) + "|" +
                              std::to_string(c.networks) + "|" +
                              std::to_string(c.seed);
      if (built.insert(key).second) Pipeline pipeline(c);
    }
  }

  Pass run_pass(int threads) override {
    Pass pass;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    for (const std::string& name : kSpecs) {
      run_scenario(load(name, threads), dir_, pass);
    }
    pass.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.ops = expected_ops();
    return pass;
  }

  /// Scored samples: one benign pass per deployed pipeline (one per spec,
  /// one per density in fig09) plus one attack pass per work item.
  long long expected_ops() const override {
    long long ops = 0;
    for (const std::string& name : kSpecs) {
      const ScenarioSpec spec = load(name, 1);
      const long long pipelines =
          spec.kind == ExperimentKind::kDensitySweep
              ? static_cast<long long>(spec.densities.size())
              : 1;
      ops += (pipelines + ScenarioRunner(spec).num_items()) *
             spec.pipeline.networks * spec.pipeline.victims_per_network;
    }
    return ops;
  }

  long long replay(Tracer& tracer, const Pass& t1_pass) override {
    long long ops = 0;
    auto root = tracer.span("workload");
    for (std::size_t si = 0; si < kSpecs.size(); ++si) {
      ScenarioSpec spec;
      {
        auto s = tracer.span("sim.spec_parse");
        spec = load(kSpecs[si], 1);
      }
      require_single_axes(spec);
      if (spec.kind == ExperimentKind::kDensitySweep) {
        for (int m : spec.densities) {
          const PipelineConfig cfg = density_pipeline_config(spec.pipeline, m);
          const Deployed d = replay_deploy(tracer, cfg);
          const auto benign =
              replay_benign(tracer, d, cfg, spec.metrics, samples_, ops);
          replay_localize(tracer, d, cfg);
          replay_items(tracer, spec, d, cfg, benign, ops);
        }
      } else {
        const Deployed d = replay_deploy(tracer, spec.pipeline);
        const auto benign =
            replay_benign(tracer, d, spec.pipeline, spec.metrics, samples_, ops);
        replay_items(tracer, spec, d, spec.pipeline, benign, ops);
        if (!model_) {
          model_ = std::make_unique<DeploymentModel>(*d.model);
          gz_ = std::make_unique<GzTable>(*d.gz);
        }
      }
      auto s = tracer.span("sim.csv_write");
      write_result_csvs(t1_pass.results.at(si), dir_);
    }
    return ops;
  }

  void probe(Tracer& tracer) override {
    probe_sim_passes(tracer, load("fig07_dr_vs_damage", 1).pipeline);
    probe_layers(tracer, *model_, *gz_, samples_, dir_);
  }

 private:
  ScenarioSpec load(const std::string& name, int threads) const {
    ScenarioSpec spec = load_spec(opts_, name, threads);
    spec.pipeline.networks = opts_.small ? 1 : 2;
    spec.pipeline.victims_per_network = opts_.small ? 10 : 50;
    if (opts_.small && !spec.quick.densities.empty()) {
      spec.densities = spec.quick.densities;
    }
    return spec;
  }

  /// The replay mirrors the runner's loops for the axes these specs use;
  /// a spec sweeping more axes needs a matching replay first.
  static void require_single_axes(const ScenarioSpec& spec) {
    if (spec.shapes.size() != 1 || spec.localizers.size() != 1 ||
        spec.actual_sigmas.size() != 1 || spec.jitters.size() != 1 ||
        spec.group_threshold_modes.size() != 1 ||
        spec.localizers.front() != "beaconless-mle") {
      throw std::runtime_error("replay: unsupported axes in spec " + spec.name);
    }
  }

  /// One work item per (metric, attack, D, x) in the runner's order:
  /// an attack pass, then the ROC (roc kind) or the trained threshold's
  /// detection rate (dr-sweep, density-sweep).
  void replay_items(Tracer& tracer, const ScenarioSpec& spec,
                    const Deployed& d, const PipelineConfig& cfg,
                    const std::vector<std::vector<double>>& benign,
                    long long& ops) {
    const bool roc = spec.kind == ExperimentKind::kRoc;
    for (std::size_t mi = 0; mi < spec.metrics.size(); ++mi) {
      for (AttackClass cls : spec.attacks) {
        for (double dmg : spec.damages) {
          for (double x : spec.compromised) {
            auto item = tracer.span("sim.item");
            AttackSpec attack;
            attack.metric = spec.metrics[mi];
            attack.attack_class = cls;
            attack.damage = dmg;
            attack.compromised_frac = x;
            if (roc) {
              const std::vector<double> scores =
                  replay_attack(tracer, d, cfg, attack, samples_, ops);
              auto s = tracer.span("stats.roc");
              const RocCurve curve(benign[mi], scores);
              curve.auc();
              for (double fp : spec.fp_grid) curve.detection_rate_at_fp(fp);
            } else {
              ThresholdFit fit{};
              {
                auto s = tracer.span("core.train");
                fit = fit_threshold(spec.metrics[mi], benign[mi],
                                    spec.fp_budget);
              }
              const std::vector<double> scores =
                  replay_attack(tracer, d, cfg, attack, samples_, ops);
              fraction_above(scores, fit.threshold());
            }
          }
        }
      }
    }
  }

  Options opts_;
  std::string dir_;
  Samples samples_;
  std::unique_ptr<DeploymentModel> model_;
  std::unique_ptr<GzTable> gz_;
};

}  // namespace

std::unique_ptr<Workload> make_figures(const Options& opts) {
  return std::make_unique<Figures>(opts);
}

}  // namespace ladbench
