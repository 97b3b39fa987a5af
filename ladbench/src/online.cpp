// online_check: the detector's deployed use.  A Diff + Add-All + Prob
// fusion bundle is trained with Pipeline::train_bundle, round-tripped
// through save_bundle/load_bundle into a RuntimeDetector (all set-up), and
// then checks a fixed stream of claims in a single-threaded loop: half
// benign (the sensor's MLE estimate of its own observation), half
// Dec-Bounded tainted at D = 120, x = 10%, crafted against Diff.
//
// Every verdict is compared with an independent recomputation (mu, the
// three metric scores, max of score / threshold), so any seed is checked
// claim by claim.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "loc/beaconless_mle.h"
#include "replay.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "workloads.h"

namespace ladbench {

using namespace lad;

namespace {

constexpr std::uint64_t kClaimStream = 0x434c4149ull;  // "CLAI"
const std::vector<MetricKind> kMetrics = {MetricKind::kDiff,
                                          MetricKind::kAddAll,
                                          MetricKind::kProb};
const std::vector<double> kTaus = {0.95, 0.99};
constexpr double kActiveTau = 0.99;

struct Claim {
  Observation obs;
  Vec2 le;
  bool tainted = false;
};

std::uint32_t verdict_digest(bool anomaly, double score) {
  std::uint64_t h = fnv1a(&anomaly, sizeof anomaly);
  return fold32(fnv1a(&score, sizeof score, h));
}

class OnlineCheck final : public Workload {
 public:
  explicit OnlineCheck(const Options& opts) : opts_(opts) {
    cfg_.networks = opts.small ? 1 : 2;
    cfg_.victims_per_network = opts.small ? 30 : 150;
    cfg_.seed = kSeedBase + opts.seed;
    cfg_.threads = opts.threads;
  }

  void setup() override {
    Pipeline pipeline(cfg_);
    const DetectorBundle trained = pipeline.train_bundle(
        beaconless_mle_factory(pipeline.model(), pipeline.gz()), kMetrics,
        kTaus, kActiveTau);
    std::ostringstream os;
    save_bundle(os, trained);
    std::istringstream is(os.str());
    bundle_ = load_bundle(is);
    detector_ = std::make_unique<RuntimeDetector>(bundle_);
  }

  void make_inputs() override { make_claims(); }

  Pass run_pass(int /*threads*/) override {
    Pass pass;
    pass.latency_us.reserve(claims_.size());
    pass.digests.reserve(claims_.size());
    const RuntimeDetector& detector = *detector_;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    for (std::size_t b = 0; b < claims_.size(); b += kClaimBlock) {
      const double block_cpu0 = process_cpu_s();
      const std::int64_t block_t0 = now_ns();
      const std::size_t end = std::min(b + kClaimBlock, claims_.size());
      for (std::size_t i = b; i < end; ++i) {
        const Claim& c = claims_[i];
        const std::int64_t c0 = now_ns();
        const Verdict v = detector.check(c.obs, c.le);
        const std::int64_t c1 = now_ns();
        pass.latency_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
        pass.digests.push_back(verdict_digest(v.anomaly, v.score));
      }
      pass.unit_wall_s.push_back(static_cast<double>(now_ns() - block_t0) * 1e-9);
      pass.unit_cpu_s.push_back(process_cpu_s() - block_cpu0);
    }
    pass.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.ops = static_cast<long long>(claims_.size());
    return pass;
  }

  long long oracle_failures(const Pass& pass) const override {
    long long failed = 0;
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      if (pass.digests[i] != oracle_[i]) ++failed;
    }
    return failed;
  }

  long long expected_ops() const override {
    return static_cast<long long>(claims_.size());
  }

  /// Set-up replay (train, save, load, materialize) under its own root,
  /// then the check loop with each check split into mu and the three
  /// metric scores.
  long long replay(Tracer& tracer, const Pass& /*t1_pass*/) override {
    {
      auto root = tracer.span("setup");
      const Deployed d = replay_deploy(tracer, cfg_);
      long long trained = 0;
      const auto scores =
          replay_benign(tracer, d, cfg_, kMetrics, samples_, trained);
      DetectorBundle bundle;
      {
        auto s = tracer.span("core.train");
        std::vector<DetectorSpec> specs;
        for (std::size_t k = 0; k < kMetrics.size(); ++k) {
          specs.push_back(detector_spec_from_training(
              train_thresholds(kMetrics[k], scores[k], kTaus), kActiveTau));
        }
        bundle = make_bundle(*d.model, cfg_.gz_omega, std::move(specs));
      }
      std::string bytes;
      {
        auto s = tracer.span("core.bundle_save");
        std::ostringstream os;
        save_bundle(os, bundle);
        bytes = os.str();
      }
      DetectorBundle loaded;
      {
        auto s = tracer.span("core.bundle_load");
        std::istringstream is(bytes);
        loaded = load_bundle(is);
      }
      auto s = tracer.span("core.materialize");
      RuntimeDetector materialized(loaded);
    }

    long long ops = 0;
    auto root = tracer.span("workload");
    const DeploymentModel& model = detector_->model();
    const GzTable& gz = detector_->gz();
    const int m = model.config().nodes_per_group;
    std::vector<std::unique_ptr<Metric>> metrics;
    for (const DetectorSpec& spec : bundle_.detectors) {
      metrics.push_back(make_metric(spec.metric));
    }
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const Claim& c = claims_[i];
      auto check = tracer.span("core.check");
      ExpectedObservation mu;
      {
        auto s = tracer.span("deploy.expected_obs");
        mu = model.expected_observation(c.le, gz);
      }
      double fused = -INFINITY;
      for (std::size_t k = 0; k < metrics.size(); ++k) {
        double score;
        {
          auto s = tracer.span(std::string("core.score.") +
                               metric_name(metrics[k]->kind()));
          score = metrics[k]->score(c.obs, mu, m);
        }
        fused = std::max(fused, score / bundle_.detectors[k].threshold);
      }
      if (verdict_digest(fused > 1.0, fused) != oracle_[i]) {
        tracer.add_count("core.check_mismatch", 1);
      }
      ++ops;
    }
    return ops;
  }

  void probe(Tracer& tracer) override {
    probe_sim_passes(tracer, cfg_);
    probe_layers(tracer, detector_->model(), detector_->gz(), samples_,
                 opts_.out);
  }

 private:
  /// The claim stream: a fresh network (not one the bundle trained on),
  /// alternating benign and tainted claims.  Benign estimates run on the
  /// pool; nothing here is timed.
  void make_claims() {
    const DeploymentModel& model = detector_->model();
    const GzTable& gz = detector_->gz();
    const std::size_t n = opts_.small ? 200 : 4000;
    Rng rng = Rng::stream(cfg_.seed ^ kClaimStream, 0);
    const Network net(model, rng);
    const Aabb field = model.config().field();
    claims_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t node;
      do {
        node = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
      } while (!field.contains(net.position(node)));
      Claim& c = claims_[i];
      c.obs = net.observe(node);
      c.tainted = i % 2 == 1;
      if (c.tainted) {
        c.le = displaced_location(net.position(node), 120.0, field, rng);
        const int budget = static_cast<int>(std::lround(0.1 * c.obs.total()));
        c.obs = greedy_taint(c.obs, model.expected_observation(c.le, gz),
                             model.config().nodes_per_group, MetricKind::kDiff,
                             AttackClass::kDecBounded, budget)
                    .tainted;
      }
    }
    const BeaconlessMleLocalizer mle(model, gz);
    parallel_for_items(
        n,
        [&](std::size_t i) {
          if (!claims_[i].tainted) claims_[i].le = mle.estimate(claims_[i].obs);
        },
        opts_.threads);
    for (const Claim& c : claims_) {
      if (c.tainted) {
        samples_.keep_tainted(c.obs, c.le);
      } else {
        samples_.keep_benign(c.obs, c.le);
      }
    }

    // The oracle: mu, each section's score over its threshold, the max.
    const int m = model.config().nodes_per_group;
    oracle_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const ExpectedObservation mu = model.expected_observation(claims_[i].le, gz);
      double fused = -INFINITY;
      for (const DetectorSpec& spec : bundle_.detectors) {
        fused = std::max(fused, make_metric(spec.metric)->score(claims_[i].obs, mu, m) /
                                    spec.threshold);
      }
      oracle_[i] = verdict_digest(fused > 1.0, fused);
    }
  }

  Options opts_;
  PipelineConfig cfg_;
  DetectorBundle bundle_;
  std::unique_ptr<RuntimeDetector> detector_;
  std::vector<Claim> claims_;
  std::vector<std::uint32_t> oracle_;
  Samples samples_;
};

}  // namespace

std::unique_ptr<Workload> make_online(const Options& opts) {
  return std::make_unique<OnlineCheck>(opts);
}

}  // namespace ladbench
