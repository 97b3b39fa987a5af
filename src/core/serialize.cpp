#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/detector.h"
#include "core/fusion.h"
#include "core/metric.h"
#include "core/trainer.h"
#include "deploy/deployment_model.h"
#include "deploy/gz.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace lad {

namespace {

constexpr const char* kHeaderV1 = "lad-detector v1";
constexpr const char* kHeaderV2 = "lad-detector v2";

/// %.17g round-trips doubles exactly.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Line-oriented reader tracking line numbers (for error context) with a
/// one-line pushback, so the section loop can peek at headers.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  bool next(std::string* line) {
    if (pushed_) {
      *line = std::move(buffer_);
      pushed_ = false;
      ++line_no_;
      return true;
    }
    if (!std::getline(is_, *line)) return false;
    ++line_no_;
    return true;
  }

  std::string require(const char* what) {
    std::string line;
    LAD_REQUIRE_MSG(next(&line), "truncated detector bundle after line "
                                     << line_no_ << ": missing " << what);
    return line;
  }

  void push_back(std::string line) {
    buffer_ = std::move(line);
    pushed_ = true;
    --line_no_;
  }

  int line_no() const { return line_no_; }

 private:
  std::istream& is_;
  int line_no_ = 0;
  bool pushed_ = false;
  std::string buffer_;
};

/// Every value parsed out of a bundle line goes through these wrappers so
/// malformed input always rejects with the offending line number.
[[noreturn]] void fail_at(const LineReader& r, const std::string& what) {
  throw AssertionError("detector bundle line " + std::to_string(r.line_no()) +
                       ": " + what);
}

double parse_double_at(const LineReader& r, std::string_view s) {
  try {
    return parse_double(s);
  } catch (const AssertionError& e) {
    fail_at(r, e.what());
  }
}

long long parse_int_at(const LineReader& r, std::string_view s) {
  try {
    return parse_int(s);
  } catch (const AssertionError& e) {
    fail_at(r, e.what());
  }
}

MetricKind metric_at(const LineReader& r, const std::string& s) {
  try {
    return metric_from_name(s);
  } catch (const AssertionError& e) {
    fail_at(r, e.what());
  }
}

/// Reads one "key value" line whose key must be `expect_key`.
std::string expect_kv(LineReader& r, const char* expect_key) {
  const std::string line = r.require(expect_key);
  const std::size_t sp = line.find(' ');
  LAD_REQUIRE_MSG(sp != std::string::npos, "bundle line "
                                               << r.line_no()
                                               << ": malformed line '" << line
                                               << "' (expected '" << expect_key
                                               << " <value>')");
  const std::string key = line.substr(0, sp);
  LAD_REQUIRE_MSG(key == expect_key, "bundle line "
                                         << r.line_no() << ": expected key '"
                                         << expect_key << "' but found '"
                                         << key << "'");
  return line.substr(sp + 1);
}

void expect_line(LineReader& r, const char* text) {
  const std::string line = r.require(text);
  LAD_REQUIRE_MSG(line == text, "bundle line " << r.line_no()
                                               << ": expected '" << text
                                               << "' but found '" << line
                                               << "'");
}

/// The deployment fields shared (in this order) by v1 bodies and the v2
/// [deployment] section.
void read_deployment_fields(LineReader& r, DetectorBundle& b) {
  b.config.field_side = parse_double_at(r, expect_kv(r, "field_side"));
  b.config.grid_nx = static_cast<int>(parse_int_at(r, expect_kv(r, "grid_nx")));
  b.config.grid_ny = static_cast<int>(parse_int_at(r, expect_kv(r, "grid_ny")));
  b.config.nodes_per_group =
      static_cast<int>(parse_int_at(r, expect_kv(r, "nodes_per_group")));
  b.config.sigma = parse_double_at(r, expect_kv(r, "sigma"));
  b.config.radio_range = parse_double_at(r, expect_kv(r, "radio_range"));
  b.config.clamp_to_field =
      parse_int_at(r, expect_kv(r, "clamp_to_field")) != 0;
}

void read_deployment_points(LineReader& r, DetectorBundle& b) {
  const long long npoints = parse_int_at(r, expect_kv(r, "points"));
  LAD_REQUIRE_MSG(npoints > 0 && npoints < 1000000,
                  "bundle line " << r.line_no()
                                 << ": implausible deployment point count "
                                 << npoints);
  b.deployment_points.reserve(static_cast<std::size_t>(npoints));
  for (long long i = 0; i < npoints; ++i) {
    const std::string line = r.require("deployment point");
    const std::size_t sp = line.find(' ');
    LAD_REQUIRE_MSG(sp != std::string::npos,
                    "bundle line " << r.line_no() << ": malformed point line '"
                                   << line << "'");
    b.deployment_points.push_back({parse_double_at(r, line.substr(0, sp)),
                                   parse_double_at(r, line.substr(sp + 1))});
  }
}

DetectorBundle load_v1(LineReader& r) {
  DetectorBundle b;
  read_deployment_fields(r, b);
  b.gz_omega = static_cast<int>(parse_int_at(r, expect_kv(r, "gz_omega")));
  DetectorSpec spec;
  spec.metric = metric_at(r, expect_kv(r, "metric"));
  spec.threshold = parse_double_at(r, expect_kv(r, "threshold"));
  read_deployment_points(r, b);
  b.detectors.push_back(std::move(spec));
  return b;
}

/// One `tau <tau> <threshold> <samples> <mean> <stddev> <min> <max>` row.
ThresholdEntry parse_tau_row(const std::vector<std::string>& tokens,
                             const LineReader& r) {
  LAD_REQUIRE_MSG(tokens.size() == 8,
                  "bundle line "
                      << r.line_no()
                      << ": tau row needs 7 fields (tau threshold samples "
                         "mean stddev min max), got "
                      << tokens.size() - 1);
  ThresholdEntry e;
  e.tau = parse_double_at(r, tokens[1]);
  e.threshold = parse_double_at(r, tokens[2]);
  const long long samples = parse_int_at(r, tokens[3]);
  LAD_REQUIRE_MSG(samples >= 0, "bundle line " << r.line_no()
                                               << ": negative sample count");
  e.samples = static_cast<std::uint64_t>(samples);
  e.score_mean = parse_double_at(r, tokens[4]);
  e.score_stddev = parse_double_at(r, tokens[5]);
  e.score_min = parse_double_at(r, tokens[6]);
  e.score_max = parse_double_at(r, tokens[7]);
  return e;
}

DetectorBundle load_v2(LineReader& r) {
  DetectorBundle b;
  expect_line(r, "[deployment]");
  read_deployment_fields(r, b);
  read_deployment_points(r, b);
  expect_line(r, "[gz]");
  b.gz_omega = static_cast<int>(parse_int_at(r, expect_kv(r, "omega")));

  std::string line = r.require("a [detector.<name>] section");
  std::vector<std::string> labels;
  for (;;) {
    LAD_REQUIRE_MSG(
        starts_with(line, "[detector.") && line.size() > 11 &&
            line.back() == ']',
        "bundle line " << r.line_no()
                       << ": expected a [detector.<name>] section, found '"
                       << line << "'");
    const std::string label = line.substr(10, line.size() - 11);
    LAD_REQUIRE_MSG(std::find(labels.begin(), labels.end(), label) ==
                        labels.end(),
                    "bundle line " << r.line_no()
                                   << ": duplicate section [detector." << label
                                   << "]");
    labels.push_back(label);

    DetectorSpec spec;
    spec.metric = metric_at(r, expect_kv(r, "metric"));
    spec.threshold = parse_double_at(r, expect_kv(r, "threshold"));

    // Tail rows: tau table, group overrides, x- extension keys - in any
    // order on read (the writer emits them canonically), anything else is
    // an unknown key and rejects like kvconfig.
    bool more_sections = false;
    while (r.next(&line)) {
      if (!line.empty() && line.front() == '[') {
        more_sections = true;
        break;
      }
      const std::vector<std::string> tokens = split(line, ' ');
      const std::string& key = tokens.empty() ? line : tokens.front();
      if (key == "tau") {
        spec.taus.push_back(parse_tau_row(tokens, r));
      } else if (key == "group") {
        // Two forms: the bare hand-written override `group <id> <threshold>`
        // and the trained row `group <id> <threshold> <samples> <mean>
        // <stddev> <trained|fallback>` per-group training emits.
        LAD_REQUIRE_MSG(tokens.size() == 3 || tokens.size() == 7,
                        "bundle line "
                            << r.line_no()
                            << ": group row needs 2 fields (group threshold) "
                               "or 6 (group threshold samples mean stddev "
                               "trained|fallback), got "
                            << tokens.size() - 1);
        GroupThreshold g;
        g.group = static_cast<int>(parse_int_at(r, tokens[1]));
        g.threshold = parse_double_at(r, tokens[2]);
        if (tokens.size() == 7) {
          const long long samples = parse_int_at(r, tokens[3]);
          LAD_REQUIRE_MSG(samples >= 0, "bundle line "
                                            << r.line_no()
                                            << ": negative sample count");
          g.samples = static_cast<std::uint64_t>(samples);
          g.score_mean = parse_double_at(r, tokens[4]);
          g.score_stddev = parse_double_at(r, tokens[5]);
          if (tokens[6] == "trained") {
            g.source = GroupOverrideSource::kTrained;
          } else if (tokens[6] == "fallback") {
            g.source = GroupOverrideSource::kFallback;
          } else {
            LAD_REQUIRE_MSG(false, "bundle line "
                                       << r.line_no()
                                       << ": group row provenance must be "
                                          "'trained' or 'fallback', got '"
                                       << tokens[6] << "'");
          }
        }
        spec.group_overrides.push_back(g);
      } else if (starts_with(key, "x-") && key.size() > 2) {
        const std::size_t sp = line.find(' ');
        LAD_REQUIRE_MSG(sp != std::string::npos,
                        "bundle line " << r.line_no()
                                       << ": extension line '" << line
                                       << "' has no value");
        spec.extensions.emplace_back(key.substr(2), line.substr(sp + 1));
      } else {
        LAD_REQUIRE_MSG(false, "bundle line "
                                   << r.line_no() << ": unknown key '" << key
                                   << "' in [detector." << label << "]");
      }
    }
    b.detectors.push_back(std::move(spec));
    if (!more_sections) break;
  }
  return b;
}

}  // namespace

const char* group_override_source_name(GroupOverrideSource source) {
  switch (source) {
    case GroupOverrideSource::kManual: return "manual";
    case GroupOverrideSource::kTrained: return "trained";
    case GroupOverrideSource::kFallback: return "fallback";
  }
  return "?";
}

double DetectorSpec::threshold_for_group(int group) const {
  for (const GroupThreshold& g : group_overrides) {
    if (g.group == group) return g.threshold;
  }
  return threshold;
}

DetectorSpec detector_spec_from_training(
    const std::vector<TrainingResult>& table, double active_tau) {
  LAD_REQUIRE_MSG(!table.empty(), "cannot build a detector section from an "
                                  "empty training table");
  std::vector<TrainingResult> rows = table;
  std::sort(rows.begin(), rows.end(),
            [](const TrainingResult& a, const TrainingResult& b) {
              return a.tau < b.tau;
            });
  DetectorSpec spec;
  spec.metric = rows.front().metric;
  bool found_active = false;
  for (const TrainingResult& r : rows) {
    LAD_REQUIRE_MSG(r.metric == spec.metric,
                    "training table mixes metrics ("
                        << metric_name(spec.metric) << " and "
                        << metric_name(r.metric) << ")");
    spec.taus.push_back({r.tau, r.threshold, r.num_samples,
                         r.score_stats.mean(), r.score_stats.stddev(),
                         r.score_stats.min(), r.score_stats.max()});
    if (r.tau == active_tau) {
      spec.threshold = r.threshold;
      found_active = true;
    }
  }
  LAD_REQUIRE_MSG(found_active, "active tau " << active_tau
                                              << " is not in the training "
                                                 "table");
  return spec;
}

const DetectorSpec* find_detector(const DetectorBundle& bundle,
                                  MetricKind metric) {
  for (const DetectorSpec& spec : bundle.detectors) {
    if (spec.metric == metric) return &spec;
  }
  return nullptr;
}

const DetectorSpec& DetectorBundle::primary() const {
  LAD_REQUIRE_MSG(!detectors.empty(), "bundle has no detector section");
  return detectors.front();
}

void DetectorBundle::validate() const {
  config.validate();
  LAD_REQUIRE_MSG(!deployment_points.empty(),
                  "bundle has no deployment points");
  LAD_REQUIRE_MSG(gz_omega >= kMinGzOmega, "gz omega must be >= "
                                              << kMinGzOmega << ", got "
                                              << gz_omega);
  LAD_REQUIRE_MSG(!detectors.empty(), "bundle has no detector section");
  const int num_groups = static_cast<int>(deployment_points.size());
  for (std::size_t i = 0; i < detectors.size(); ++i) {
    const DetectorSpec& spec = detectors[i];
    for (std::size_t j = 0; j < i; ++j) {
      LAD_REQUIRE_MSG(detectors[j].metric != spec.metric,
                      "duplicate detector section for metric '"
                          << metric_name(spec.metric) << "'");
    }
    // Fused bundles normalize scores by thresholds, so every threshold
    // (including group overrides) must be positive.
    if (fused()) {
      LAD_REQUIRE_MSG(spec.threshold > 0,
                      "fused bundle threshold for '"
                          << metric_name(spec.metric)
                          << "' must be positive, got " << spec.threshold);
    }
    double prev_tau = 0.0;
    for (const ThresholdEntry& e : spec.taus) {
      LAD_REQUIRE_MSG(e.tau > 0.0 && e.tau <= 1.0,
                      "tau " << e.tau << " must be in (0,1]");
      LAD_REQUIRE_MSG(e.tau > prev_tau,
                      "tau table must be strictly increasing (tau " << e.tau
                          << " follows " << prev_tau << ")");
      prev_tau = e.tau;
    }
    int prev_group = -1;
    for (const GroupThreshold& g : spec.group_overrides) {
      LAD_REQUIRE_MSG(g.group >= 0 && g.group < num_groups,
                      "group override " << g.group << " out of range [0, "
                                        << num_groups << ")");
      LAD_REQUIRE_MSG(g.group > prev_group,
                      "group overrides must be strictly increasing (group "
                          << g.group << " follows " << prev_group << ")");
      if (fused()) {
        LAD_REQUIRE_MSG(g.threshold > 0,
                        "fused bundle group override for group " << g.group
                            << " must be positive, got " << g.threshold);
      }
      // A trained row with zero samples is a contradiction (the min-samples
      // floor would have recorded it as a fallback instead).
      LAD_REQUIRE_MSG(g.source != GroupOverrideSource::kTrained ||
                          g.samples >= 1,
                      "trained group override for group "
                          << g.group << " has no training samples");
      prev_group = g.group;
    }
    for (const auto& [key, value] : spec.extensions) {
      LAD_REQUIRE_MSG(!key.empty() &&
                          key.find_first_of(" \t\n\r") == std::string::npos,
                      "extension key '" << key << "' must be a non-empty "
                                           "token");
      // A newline in the value would serialize as a stray line the loader
      // rejects - a validated bundle must always round-trip.
      LAD_REQUIRE_MSG(value.find_first_of("\n\r") == std::string::npos,
                      "extension value for '" << key
                                              << "' must be a single line");
    }
  }
}

DetectorBundle make_bundle(const DeploymentModel& model, int gz_omega,
                           MetricKind metric, double threshold) {
  DetectorSpec spec;
  spec.metric = metric;
  spec.threshold = threshold;
  std::vector<DetectorSpec> detectors;
  detectors.push_back(std::move(spec));
  return make_bundle(model, gz_omega, std::move(detectors));
}

DetectorBundle make_bundle(const DeploymentModel& model, int gz_omega,
                           std::vector<DetectorSpec> detectors) {
  DetectorBundle b;
  b.config = model.config();
  b.deployment_points = model.deployment_points();
  b.gz_omega = gz_omega;
  b.detectors = std::move(detectors);
  b.validate();
  return b;
}

void save_bundle(std::ostream& os, const DetectorBundle& bundle) {
  bundle.validate();
  os << kHeaderV2 << "\n";
  os << "[deployment]\n";
  os << "field_side " << num(bundle.config.field_side) << "\n";
  os << "grid_nx " << bundle.config.grid_nx << "\n";
  os << "grid_ny " << bundle.config.grid_ny << "\n";
  os << "nodes_per_group " << bundle.config.nodes_per_group << "\n";
  os << "sigma " << num(bundle.config.sigma) << "\n";
  os << "radio_range " << num(bundle.config.radio_range) << "\n";
  os << "clamp_to_field " << (bundle.config.clamp_to_field ? 1 : 0) << "\n";
  os << "points " << bundle.deployment_points.size() << "\n";
  for (const Vec2& p : bundle.deployment_points) {
    os << num(p.x) << " " << num(p.y) << "\n";
  }
  os << "[gz]\n";
  os << "omega " << bundle.gz_omega << "\n";
  for (const DetectorSpec& spec : bundle.detectors) {
    os << "[detector." << metric_name(spec.metric) << "]\n";
    os << "metric " << metric_name(spec.metric) << "\n";
    os << "threshold " << num(spec.threshold) << "\n";
    for (const ThresholdEntry& e : spec.taus) {
      os << "tau " << num(e.tau) << " " << num(e.threshold) << " "
         << e.samples << " " << num(e.score_mean) << " "
         << num(e.score_stddev) << " " << num(e.score_min) << " "
         << num(e.score_max) << "\n";
    }
    for (const GroupThreshold& g : spec.group_overrides) {
      os << "group " << g.group << " " << num(g.threshold);
      if (g.source != GroupOverrideSource::kManual) {
        os << " " << g.samples << " " << num(g.score_mean) << " "
           << num(g.score_stddev) << " "
           << group_override_source_name(g.source);
      }
      os << "\n";
    }
    for (const auto& [key, value] : spec.extensions) {
      os << "x-" << key << " " << value << "\n";
    }
  }
}

DetectorBundle load_bundle(std::istream& is, int* source_version) {
  LineReader r(is);
  const std::string header = r.require("header");
  DetectorBundle b;
  int version = 0;
  if (header == kHeaderV1) {
    version = 1;
    b = load_v1(r);
  } else if (header == kHeaderV2) {
    version = 2;
    b = load_v2(r);
  } else {
    LAD_REQUIRE_MSG(false, "unsupported bundle header: '" << header << "'");
  }
  b.validate();
  if (source_version != nullptr) *source_version = version;
  return b;
}

DetectorBundle load_bundle_file(const std::string& path,
                                int* source_version) {
  std::ifstream is(path);
  LAD_REQUIRE_MSG(static_cast<bool>(is),
                  "cannot open detector bundle '" << path << "'");
  try {
    return load_bundle(is, source_version);
  } catch (const AssertionError& e) {
    throw AssertionError(path + ": " + e.what());
  }
}

RuntimeDetector::RuntimeDetector(const DetectorBundle& bundle)
    : specs_(bundle.detectors) {
  bundle.validate();
  model_ = std::make_unique<DeploymentModel>(bundle.config,
                                             bundle.deployment_points);
  gz_ = std::make_unique<GzTable>(
      GzParams{bundle.config.radio_range, bundle.config.sigma},
      bundle.gz_omega);
  for (const DetectorSpec& spec : specs_) {
    metrics_.push_back(make_metric(spec.metric));
  }
  if (specs_.size() == 1) {
    detector_ = std::make_unique<Detector>(*model_, *gz_, specs_[0].metric,
                                           specs_[0].threshold);
  } else {
    std::vector<FusionDetector::Component> components;
    components.reserve(specs_.size());
    for (const DetectorSpec& spec : specs_) {
      components.emplace_back(spec.metric, spec.threshold);
    }
    detector_ = std::make_unique<FusionDetector>(*model_, *gz_,
                                                 std::move(components));
  }
}

RuntimeDetector::~RuntimeDetector() = default;

Verdict RuntimeDetector::check_for_group(const Observation& o, Vec2 le,
                                         int group) const {
  LAD_REQUIRE_MSG(group >= 0 && group < model_->num_groups(),
                  "group " << group << " out of range [0, "
                           << model_->num_groups() << ")");
  const ExpectedObservation mu = model_->expected_observation(le, *gz_);
  const int m = model_->config().nodes_per_group;
  if (specs_.size() == 1) {
    const double threshold = specs_[0].threshold_for_group(group);
    const double s = metrics_[0]->score(o, mu, m);
    return {s > threshold, s, threshold};
  }
  double fused = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    fused = std::max(fused, metrics_[i]->score(o, mu, m) /
                                specs_[i].threshold_for_group(group));
  }
  return {fused > 1.0, fused, 1.0};
}

}  // namespace lad
