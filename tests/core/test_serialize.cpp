#include "core/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/detector.h"
#include "core/fusion.h"
#include "core/metric.h"
#include "core/trainer.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "util/assert.h"

namespace lad {
namespace {

DeploymentConfig cfg4() {
  DeploymentConfig cfg;
  cfg.field_side = 400.0;
  cfg.grid_nx = 4;
  cfg.grid_ny = 4;
  cfg.nodes_per_group = 30;
  cfg.sigma = 25.0;
  cfg.radio_range = 45.0;
  return cfg;
}

/// A fully loaded fusion bundle: three sections, multi-tau tables, group
/// overrides, and extension keys.
DetectorBundle fat_bundle(const DeploymentModel& model) {
  DetectorSpec diff;
  diff.metric = MetricKind::kDiff;
  diff.threshold = 12.25;
  diff.taus = {{0.95, 10.5, 4800, 3.5, 1.25, 0.125, 19.75},
               {0.99, 12.25, 4800, 3.5, 1.25, 0.125, 19.75}};
  diff.group_overrides = {{1, 11.5}, {3, 13.0}};
  diff.extensions = {{"trained-by", "unit test"}, {"note", "hello world"}};
  DetectorSpec prob;
  prob.metric = MetricKind::kProb;
  prob.threshold = 30.5;
  return make_bundle(model, 128, {diff, prob});
}

std::string text_of(const DetectorBundle& b) {
  std::ostringstream os;
  save_bundle(os, b);
  return os.str();
}

DetectorBundle parse(const std::string& text, int* version = nullptr) {
  std::istringstream is(text);
  return load_bundle(is, version);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const DeploymentModel model(cfg4());
  const DetectorBundle original =
      make_bundle(model, 128, MetricKind::kProb, 17.25);
  int version = 0;
  const DetectorBundle loaded = parse(text_of(original), &version);
  EXPECT_EQ(loaded, original);
  EXPECT_EQ(version, 2);
}

TEST(Serialize, RoundTripPreservesFusionSectionsTausOverridesExtensions) {
  const DeploymentModel model(cfg4());
  const DetectorBundle original = fat_bundle(model);
  const DetectorBundle loaded = parse(text_of(original));
  EXPECT_EQ(loaded, original);
  // And the canonical text is a fixed point.
  EXPECT_EQ(text_of(loaded), text_of(original));
}

TEST(Serialize, RoundTripPreservesExactDoubles) {
  const DeploymentModel model(cfg4());
  DetectorBundle b = make_bundle(model, 64, MetricKind::kDiff, 0.0);
  b.detectors[0].threshold = 0.1 + 0.2;  // no short decimal representation
  b.config.sigma = 1.0 / 3.0;
  const DetectorBundle loaded = parse(text_of(b));
  EXPECT_EQ(loaded.detectors[0].threshold, b.detectors[0].threshold);
  EXPECT_EQ(loaded.config.sigma, b.config.sigma);
}

TEST(Serialize, RoundTripWithCustomDeploymentPoints) {
  const DeploymentModel model(cfg4(), {{10.5, 20.25}, {399.9, 0.1}, {7, 7}});
  const DetectorBundle original =
      make_bundle(model, 256, MetricKind::kAddAll, 42.0);
  const DetectorBundle loaded = parse(text_of(original));
  EXPECT_EQ(loaded.deployment_points, original.deployment_points);
}

TEST(Serialize, MaterializedDetectorMatchesLiveDetector) {
  const DeploymentConfig cfg = cfg4();
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma}, 128);
  const Detector live(model, gz, MetricKind::kDiff, 12.0);

  const RuntimeDetector shipped(
      parse(text_of(make_bundle(model, 128, MetricKind::kDiff, 12.0))));
  EXPECT_FALSE(shipped.fused());

  Rng rng(3);
  const Network net(model, rng);
  for (std::size_t node = 0; node < net.num_nodes(); node += 113) {
    const Observation obs = net.observe(node);
    const Vec2 le = net.position(node);
    const Verdict a = live.check(obs, le);
    const Verdict b = shipped.check(obs, le);
    EXPECT_EQ(a.anomaly, b.anomaly);
    EXPECT_DOUBLE_EQ(a.score, b.score);
  }
}

TEST(Serialize, FusedBundleMaterializesFusionDetector) {
  const DeploymentConfig cfg = cfg4();
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma}, 128);
  const DetectorBundle bundle = fat_bundle(model);
  const RuntimeDetector rt(parse(text_of(bundle)));
  EXPECT_TRUE(rt.fused());
  EXPECT_NE(rt.detector().describe().find("fusion"), std::string::npos);

  const FusionDetector live(
      model, gz, {{MetricKind::kDiff, 12.25}, {MetricKind::kProb, 30.5}});
  Rng rng(5);
  const Network net(model, rng);
  const Observation obs = net.observe(11);
  const Vec2 le = net.position(11);
  EXPECT_DOUBLE_EQ(rt.score(obs, le), live.fused_score(obs, le));
}

TEST(Serialize, CheckForGroupHonorsOverrides) {
  const DeploymentConfig cfg = cfg4();
  const DeploymentModel model(cfg);
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 5.0;
  spec.group_overrides = {{2, 1e9}};
  const DetectorBundle bundle = make_bundle(model, 64, {spec});
  EXPECT_EQ(bundle.primary().threshold_for_group(2), 1e9);
  EXPECT_EQ(bundle.primary().threshold_for_group(0), 5.0);

  const RuntimeDetector rt(bundle);
  Rng rng(7);
  const Network net(model, rng);
  const std::size_t node = 9;
  const Observation obs = net.observe(node);
  const Vec2 lie = cfg.field().clamp(net.position(node) + Vec2{300, 300});
  // The lie alarms under the base threshold but not under group 2's
  // (absurdly generous) override.
  ASSERT_TRUE(rt.check(obs, lie).anomaly);
  EXPECT_TRUE(rt.check_for_group(obs, lie, 0).anomaly);
  EXPECT_FALSE(rt.check_for_group(obs, lie, 2).anomaly);
  EXPECT_THROW(rt.check_for_group(obs, lie, -1), AssertionError);
  EXPECT_THROW(rt.check_for_group(obs, lie, model.num_groups()),
               AssertionError);
}

TEST(Serialize, GroupRowProvenanceRoundTrips) {
  const DeploymentModel model(cfg4());
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  // All three row kinds: hand-written, trained, recorded fallback.
  spec.group_overrides = {
      {0, 8.5},
      {1, 7.25, GroupOverrideSource::kTrained, 120, 2.5, 1.125},
      {3, 10.0, GroupOverrideSource::kFallback, 4, 1.5, 0.25}};
  const DetectorBundle original = make_bundle(model, 64, {spec});
  const std::string text = text_of(original);
  // Manual rows keep the bare 2-field form; trained/fallback rows carry
  // the bucket provenance and their marker.
  EXPECT_NE(text.find("group 0 8.5\n"), std::string::npos);
  EXPECT_NE(text.find("group 1 7.25 120 2.5 1.125 trained\n"),
            std::string::npos);
  EXPECT_NE(text.find("group 3 10 4 1.5 0.25 fallback\n"),
            std::string::npos);
  const DetectorBundle loaded = parse(text);
  EXPECT_EQ(loaded, original);
  EXPECT_EQ(text_of(loaded), text);  // canonical text is a fixed point
}

TEST(Serialize, GroupRowRejectsMalformedProvenance) {
  const DeploymentModel model(cfg4());
  const std::string text =
      text_of(make_bundle(model, 64, MetricKind::kDiff, 5.0));
  // Wrong arity: 3 provenance fields without the marker.
  EXPECT_THROW(parse(text + "group 1 2.5 10 1.0 0.5\n"), AssertionError);
  // Unknown provenance marker.
  EXPECT_THROW(parse(text + "group 1 2.5 10 1.0 0.5 guessed\n"),
               AssertionError);
  // Negative sample count.
  EXPECT_THROW(parse(text + "group 1 2.5 -1 1.0 0.5 trained\n"),
               AssertionError);
  // The well-formed forms still parse.
  EXPECT_NO_THROW(parse(text + "group 1 2.5\n"));
  EXPECT_NO_THROW(parse(text + "group 1 2.5 10 1.0 0.5 trained\n"));
  EXPECT_NO_THROW(parse(text + "group 1 2.5 0 0 0 fallback\n"));
}

TEST(Serialize, ValidateRejectsTrainedGroupRowWithoutSamples) {
  const DeploymentModel model(cfg4());
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  spec.group_overrides = {
      {1, 7.25, GroupOverrideSource::kTrained, 0, 0.0, 0.0}};
  EXPECT_THROW(make_bundle(model, 64, {spec}), AssertionError);
  // A zero-sample *fallback* row is fine - that is what the min-samples
  // floor records for a group no victim landed in.
  spec.group_overrides = {
      {1, 10.0, GroupOverrideSource::kFallback, 0, 0.0, 0.0}};
  EXPECT_NO_THROW(make_bundle(model, 64, {spec}));
}

TEST(Serialize, DetectorSpecFromTrainingSelectsActiveTau) {
  std::vector<TrainingResult> table;
  for (double tau : {0.99, 0.95}) {  // deliberately unsorted
    TrainingResult r;
    r.metric = MetricKind::kAddAll;
    r.tau = tau;
    r.threshold = 100.0 * tau;
    r.num_samples = 42;
    r.score_stats.add(1.0);
    r.score_stats.add(3.0);
    table.push_back(r);
  }
  const DetectorSpec spec = detector_spec_from_training(table, 0.95);
  EXPECT_EQ(spec.metric, MetricKind::kAddAll);
  EXPECT_EQ(spec.threshold, 95.0);
  ASSERT_EQ(spec.taus.size(), 2u);
  EXPECT_EQ(spec.taus[0].tau, 0.95);  // sorted ascending
  EXPECT_EQ(spec.taus[1].tau, 0.99);
  EXPECT_EQ(spec.taus[0].samples, 42u);
  EXPECT_EQ(spec.taus[0].score_mean, 2.0);

  EXPECT_THROW(detector_spec_from_training(table, 0.5), AssertionError);
  EXPECT_THROW(detector_spec_from_training({}, 0.5), AssertionError);
  table[1].metric = MetricKind::kDiff;
  EXPECT_THROW(detector_spec_from_training(table, 0.95), AssertionError);
}

TEST(Serialize, FindDetectorLocatesSections) {
  const DeploymentModel model(cfg4());
  const DetectorBundle bundle = fat_bundle(model);
  ASSERT_NE(find_detector(bundle, MetricKind::kProb), nullptr);
  EXPECT_EQ(find_detector(bundle, MetricKind::kProb)->threshold, 30.5);
  EXPECT_EQ(find_detector(bundle, MetricKind::kAddAll), nullptr);
}

// ---- validation rejections ---------------------------------------------

TEST(Serialize, ValidateRejectsStructuralErrors) {
  const DeploymentModel model(cfg4());
  {
    DetectorSpec a, b;
    a.metric = b.metric = MetricKind::kDiff;
    a.threshold = b.threshold = 1.0;
    EXPECT_THROW(make_bundle(model, 64, {a, b}), AssertionError);
  }
  {
    DetectorSpec s;
    s.taus = {{0.99, 1.0, 1, 0, 0, 0, 0}, {0.95, 1.0, 1, 0, 0, 0, 0}};
    EXPECT_THROW(make_bundle(model, 64, {s}), AssertionError);  // unsorted
  }
  {
    DetectorSpec s;
    s.taus = {{1.5, 1.0, 1, 0, 0, 0, 0}};
    EXPECT_THROW(make_bundle(model, 64, {s}), AssertionError);  // tau > 1
  }
  {
    DetectorSpec s;
    s.group_overrides = {{99, 1.0}};
    EXPECT_THROW(make_bundle(model, 64, {s}), AssertionError);  // range
  }
  {
    DetectorSpec s;
    s.group_overrides = {{3, 1.0}, {1, 1.0}};
    EXPECT_THROW(make_bundle(model, 64, {s}), AssertionError);  // unsorted
  }
  {
    // A fused bundle must have positive thresholds (scores are divided by
    // them); a single-section bundle tolerates 0 (v1 compatibility).
    DetectorSpec zero, other;
    zero.metric = MetricKind::kDiff;
    zero.threshold = 0.0;
    other.metric = MetricKind::kProb;
    other.threshold = 1.0;
    EXPECT_NO_THROW(make_bundle(model, 64, {zero}));
    EXPECT_THROW(make_bundle(model, 64, {zero, other}), AssertionError);
  }
  EXPECT_THROW(make_bundle(model, 64, std::vector<DetectorSpec>{}),
               AssertionError);
}

// ---- malformed-input rejections (v1 and v2) ----------------------------

TEST(Serialize, RejectsWrongHeader) {
  std::stringstream ss("not-a-bundle v9\n");
  EXPECT_THROW(load_bundle(ss), AssertionError);
  std::stringstream v3("lad-detector v3\n");
  EXPECT_THROW(load_bundle(v3), AssertionError);
}

TEST(Serialize, RejectsTruncatedInput) {
  const DeploymentModel model(cfg4());
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(load_bundle(cut), AssertionError);
}

TEST(Serialize, RejectsKeyOutOfOrder) {
  std::stringstream ss("lad-detector v2\n[deployment]\nsigma 50\n");
  EXPECT_THROW(load_bundle(ss), AssertionError);
}

TEST(Serialize, RejectsGarbageNumbers) {
  const DeploymentModel model(cfg4());
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  const auto pos = text.find("threshold 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "threshold x");
  std::stringstream bad(text);
  EXPECT_THROW(load_bundle(bad), AssertionError);
}

TEST(Serialize, RejectsInvalidConfigAfterParse) {
  const DeploymentModel model(cfg4());
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  const auto pos = text.find("sigma 25");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "sigma -5");
  std::stringstream bad(text);
  EXPECT_THROW(load_bundle(bad), AssertionError);
}

TEST(Serialize, RejectsCoarseGzOmegaAtLoad) {
  // A bundle must fail to load with the same omega bound GzTable enforces,
  // not load and then fail inside RuntimeDetector.
  const DeploymentModel model(cfg4());
  EXPECT_THROW(make_bundle(model, kMinGzOmega - 1, MetricKind::kDiff, 1.0),
               AssertionError);
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  const auto pos = text.find("omega 64");
  ASSERT_NE(pos, std::string::npos);
  for (const char* omega : {"omega 7", "omega 1"}) {
    std::string coarse = text;
    coarse.replace(pos, 8, omega);
    try {
      parse(coarse);
      ADD_FAILURE() << "loaded a bundle with " << omega;
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("gz omega must be >= 8"),
                std::string::npos)
          << e.what();
    }
  }
  // The v1 spelling goes through the same validation.
  EXPECT_THROW(parse("lad-detector v1\nfield_side 400\ngrid_nx 4\n"
                     "grid_ny 4\nnodes_per_group 30\nsigma 25\n"
                     "radio_range 45\nclamp_to_field 0\ngz_omega 7\n"
                     "metric diff\nthreshold 1\npoints 2\n1 2\n3 4\n"),
               AssertionError);
  EXPECT_NO_THROW(make_bundle(model, kMinGzOmega, MetricKind::kDiff, 1.0));
}

TEST(Serialize, RejectsUnknownDetectorKeyWithLineContext) {
  const DeploymentModel model(cfg4());
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  text += "wibble 3\n";
  try {
    parse(text);
    FAIL() << "unknown key accepted";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("wibble"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(Serialize, RejectsDuplicateDetectorSections) {
  const DeploymentModel model(cfg4());
  std::string text = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  text += "[detector.diff]\nmetric diff\nthreshold 2\n";
  EXPECT_THROW(parse(text), AssertionError);
  // A distinct label with a repeated metric is also rejected (validate).
  std::string text2 = text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  text2 += "[detector.other]\nmetric diff\nthreshold 2\n";
  EXPECT_THROW(parse(text2), AssertionError);
}

TEST(Serialize, RejectsMalformedTauAndGroupRows) {
  const DeploymentModel model(cfg4());
  const std::string base =
      text_of(make_bundle(model, 64, MetricKind::kDiff, 1.0));
  EXPECT_THROW(parse(base + "tau 0.99 1.0\n"), AssertionError);
  EXPECT_THROW(parse(base + "tau 0.99 1 1 0 0 0 zero\n"), AssertionError);
  EXPECT_THROW(parse(base + "group 1\n"), AssertionError);
  EXPECT_THROW(parse(base + "group one 1.0\n"), AssertionError);
  EXPECT_THROW(parse(base + "x-nothing\n"), AssertionError);
}

// ---- fuzz-style robustness ---------------------------------------------
//
// Malformed bundles must raise lad::AssertionError - never crash, never
// throw anything else, never silently "succeed" into an invalid bundle.
// `survives` funnels every outcome through that contract.

enum class ParseOutcome { kOk, kRejected };

ParseOutcome survives(const std::string& text) {
  try {
    const DetectorBundle b = parse(text);
    b.validate();  // anything that loads must also be structurally valid
    return ParseOutcome::kOk;
  } catch (const AssertionError&) {
    return ParseOutcome::kRejected;
  }
  // Any other exception type escapes and fails the test loudly.
}

TEST(SerializeFuzz, EveryBytePrefixEitherLoadsOrRejects) {
  const DeploymentModel model(cfg4());
  for (const std::string& text :
       {text_of(fat_bundle(model)),
        // A v1 body, exercising the migration parser's error paths.
        std::string("lad-detector v1\nfield_side 400\ngrid_nx 4\n"
                    "grid_ny 4\nnodes_per_group 30\nsigma 25\n"
                    "radio_range 45\nclamp_to_field 0\ngz_omega 64\n"
                    "metric diff\nthreshold 1\npoints 2\n1 2\n3 4\n")}) {
    int ok = 0;
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      if (survives(text.substr(0, cut)) == ParseOutcome::kOk) ++ok;
    }
    // Some truncations legitimately parse (the optional tail can end at
    // any complete row); the contract fuzzing enforces is that every
    // other prefix rejects with AssertionError - never a crash, never a
    // different exception (survives() would rethrow it here).
    EXPECT_EQ(survives(text), ParseOutcome::kOk);
    EXPECT_LT(ok, static_cast<int>(text.size()) / 2)
        << "most truncations must reject";
    // Everything cut before the first detector section must reject.
    const std::size_t first_section = text.find("metric ");
    ASSERT_NE(first_section, std::string::npos);
    for (std::size_t cut = 0; cut < first_section; cut += 7) {
      EXPECT_EQ(survives(text.substr(0, cut)), ParseOutcome::kRejected)
          << "prefix of " << cut << " bytes parsed";
    }
  }
}

TEST(SerializeFuzz, LinePermutationsNeverCrash) {
  const DeploymentModel model(cfg4());
  const std::string text = text_of(fat_bundle(model));
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  // Swap every adjacent pair; most permutations violate the schema and
  // must reject with AssertionError, none may crash or mis-load.
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::vector<std::string> permuted = lines;
    std::swap(permuted[i], permuted[i + 1]);
    std::string body;
    for (const std::string& line : permuted) body += line + "\n";
    survives(body);
  }
}

TEST(SerializeFuzz, GarbageLineInjectionAlwaysRejectsWithLineContext) {
  const DeploymentModel model(cfg4());
  const std::string text = text_of(fat_bundle(model));
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> mangled = lines;
    mangled[i] = "\x7f garbage \x01";
    std::string body;
    for (const std::string& line : mangled) body += line + "\n";
    try {
      parse(body);
      FAIL() << "garbage at line " << i + 1 << " accepted";
    } catch (const AssertionError& e) {
      if (i > 0) {  // header errors name the header, not a line number
        EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SerializeFuzz, RandomByteCorruptionNeverCrashes) {
  const DeploymentModel model(cfg4());
  const std::string text = text_of(fat_bundle(model));
  // Deterministic LCG; no seed-dependent flakiness.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::string mangled = text;
    const std::size_t pos = next() % mangled.size();
    mangled[pos] = static_cast<char>(next() % 256);
    survives(mangled);
  }
}

}  // namespace
}  // namespace lad
