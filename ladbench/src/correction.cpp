// correction: tab_correction, the trimmed-ML location corrector
// (Section 8's stated goal).  It never calls the MLE localizer, so it is
// the control workload for likelihood-layer changes.
//
// Sizing: the spec deploys a single network, whose geometry sets much of
// the corrector's cost, so one pass runs the spec at kSpecSeeds derived
// seeds (four networks) with 6 trials per item (the spec has 300, its
// quick mode 60): 216 corrections, under a second, so a run repeats the
// pass some 30 times.
#include <filesystem>

#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/corrector.h"
#include "replay.h"
#include "rng/rng.h"
#include "workloads.h"

namespace ladbench {

using namespace lad;

namespace {

constexpr int kSpecSeeds = 4;

class Correction final : public Workload {
 public:
  explicit Correction(const Options& opts)
      : opts_(opts), dir_(opts.out + "/correction") {
    std::filesystem::create_directories(dir_);
  }

  /// Parses the spec and builds a Pipeline at its base configuration.
  void setup() override {
    Pipeline pipeline(load_spec(opts_, "tab_correction", opts_.threads).pipeline);
  }

  Pass run_pass(int threads) override {
    Pass pass;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    for (int j = 0; j < kSpecSeeds; ++j) run_scenario(load(threads, j), dir_, pass);
    pass.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.ops = expected_ops();
    return pass;
  }

  /// Corrected trials: every item (the benign floor included) corrects
  /// `trials` observations, at each spec seed.
  long long expected_ops() const override {
    const ScenarioSpec spec = load(1, 0);
    return kSpecSeeds * ScenarioRunner(spec).num_items() * spec.trials;
  }

  /// Mirrors the runner's correction items at every spec seed, one-item
  /// shard by one-item shard: each shard deploys the model, g(z) table and
  /// network again.
  long long replay(Tracer& tracer, const Pass& t1_pass) override {
    long long ops = 0;
    auto root = tracer.span("workload");
    for (int j = 0; j < kSpecSeeds; ++j) {
      replay_spec(tracer, j, ops);
      auto s = tracer.span("sim.csv_write");
      write_result_csvs(t1_pass.results.at(static_cast<std::size_t>(j)), dir_);
    }
    return ops;
  }

  void probe(Tracer& tracer) override {
    // The Pipeline passes at the figures' per-spec sizes and this spec's
    // deployment.
    PipelineConfig cfg = load(1, 0).pipeline;
    cfg.networks = opts_.small ? 1 : 2;
    cfg.victims_per_network = opts_.small ? 10 : 50;
    probe_sim_passes(tracer, cfg);
    probe_layers(tracer, *model_, *gz_, samples_, dir_);
  }

 private:
  /// The spec at derived seed `j` of this run's seed.
  ScenarioSpec load(int threads, int j) const {
    ScenarioSpec spec = load_spec(opts_, "tab_correction", threads);
    spec.pipeline.seed = kSeedBase + kSpecSeeds * opts_.seed +
                         static_cast<std::uint64_t>(j);
    spec.trials = opts_.small ? 2 : 6;
    return spec;
  }

  void replay_spec(Tracer& tracer, int j, long long& ops) {
    ScenarioSpec spec;
    {
      auto s = tracer.span("sim.spec_parse");
      spec = load(1, j);
    }
    const DeploymentConfig& dcfg = spec.pipeline.deploy;
    const std::uint64_t seed = spec.pipeline.seed;
    const double x = spec.compromised.front();
    const MetricKind target = spec.metrics.front();
    const std::size_t trials = static_cast<std::size_t>(spec.trials);
    const long long items = ScenarioRunner(spec).num_items();

    for (long long item = 0; item < items; ++item) {
      auto item_span = tracer.span("sim.item");
      std::unique_ptr<DeploymentModel> model;
      std::unique_ptr<GzTable> gz;
      std::unique_ptr<Network> net;
      // lad-lint: allow(rng-construct) -- the runner's root stream.
      Rng rng(seed);
      {
        auto s = tracer.span("sim.pipeline_build");
        model = std::make_unique<DeploymentModel>(dcfg);
        {
          auto g = tracer.span("deploy.gz_build");
          gz = std::make_unique<GzTable>(
              GzParams{dcfg.radio_range, dcfg.sigma});
        }
        auto n = tracer.span("deploy.network_build");
        net = std::make_unique<Network>(*model, rng);
      }
      const LocationCorrector corrector(*model, *gz);
      const auto draw_in_field = [&](Rng& r) {
        std::size_t node;
        do {
          node = static_cast<std::size_t>(r.uniform_int(net->num_nodes()));
        } while (!dcfg.field().contains(net->position(node)));
        return node;
      };

      const bool floor = item == 0;
      const AttackClass cls =
          floor ? AttackClass::kDecOnly
                : spec.attacks[static_cast<std::size_t>(item - 1) /
                               spec.damages.size()];
      const double dmg =
          floor ? 0.0
                : spec.damages[static_cast<std::size_t>(item - 1) %
                               spec.damages.size()];
      Rng trial_rng =
          floor ? rng : Rng::stream(seed, static_cast<std::uint64_t>(item));
      std::vector<std::size_t> nodes(trials);
      std::vector<Vec2> les(trials);
      for (std::size_t t = 0; t < trials; ++t) {
        nodes[t] = draw_in_field(trial_rng);
        if (!floor) {
          les[t] = displaced_location(net->position(nodes[t]), dmg,
                                      dcfg.field(), trial_rng);
        }
      }
      ObservationBatch batch;
      {
        auto s = tracer.span("deploy.observe");
        net->observe_many(nodes, batch);
      }
      tracer.add_count("deploy.observations", static_cast<double>(trials));
      for (std::size_t t = 0; t < trials; ++t) {
        Observation obs = batch.to_observation(t);
        if (!floor) {
          ExpectedObservation mu;
          {
            auto s = tracer.span("deploy.expected_obs");
            mu = model->expected_observation(les[t], *gz);
          }
          const int budget = static_cast<int>(x * obs.total());
          TaintResult taint;
          {
            auto s = tracer.span("attack.taint");
            taint = greedy_taint(obs, mu, dcfg.nodes_per_group, target, cls,
                                 budget);
          }
          tracer.add_count("attack.budget", budget);
          tracer.add_count("attack.budget_spent", taint.budget_spent);
          obs = std::move(taint.tainted);
          samples_.keep_tainted(obs, les[t]);
        } else {
          samples_.keep_benign(obs, net->position(nodes[t]));
        }
        CorrectionResult corrected;
        {
          auto s = tracer.span("core.correct");
          corrected = corrector.correct(obs);
        }
        ++ops;
        if (t < 2) {
          auto s = tracer.span("trace.shadow");
          shadow_robust_ll(tracer, *model, *gz, obs, corrected.corrected);
        }
      }
      if (!model_) {
        model_ = std::move(model);
        gz_ = std::move(gz);
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

std::unique_ptr<Workload> make_correction(const Options& opts) {
  return std::make_unique<Correction>(opts);
}

}  // namespace ladbench
