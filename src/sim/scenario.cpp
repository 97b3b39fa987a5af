// ScenarioSpec parsing/validation, overrides, shard syntax, the localizer
// registry, and tagged-CSV persistence.  Which sections, [sweep] axes and
// optional keys a kind accepts comes from the kind table
// (sim/scenario_kinds.h); the work-item expansion and execution live in
// scenario_runner.cpp.
#include "sim/scenario.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "loc/amorphous.h"
#include "loc/dvhop.h"
#include "loc/truth_noise.h"
#include "loc/weighted_centroid.h"
#include "sim/pipeline.h"
#include "sim/scenario_kinds.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {

namespace {

using detail::experiment_kinds;
using detail::KindDecl;

constexpr std::uint64_t kDefaultScenarioSeed = 20050404;  // IPDPS 2005 opened

const std::vector<std::string>& common_sections() {
  static const std::vector<std::string> sections = {
      "scenario", "pipeline", "quick", "sweep", "detector", "run", "output"};
  return sections;
}

int get_positive_int(const KvConfig::Section& s, const std::string& key,
                     long long def) {
  const long long v = s.get_int(key, def);
  LAD_REQUIRE_MSG(v > 0, "[" << s.name() << "] " << key
                             << " must be positive, got " << v);
  return static_cast<int>(v);
}

std::vector<MetricKind> parse_metrics(const KvConfig::Section& s) {
  std::vector<MetricKind> out;
  for (const std::string& name : s.get_string_list("metrics", {"diff"})) {
    out.push_back(metric_from_name(name));
  }
  return out;
}

std::vector<AttackClass> parse_attacks(const KvConfig::Section& s) {
  std::vector<AttackClass> out;
  for (const std::string& name :
       s.get_string_list("attacks", {"dec-bounded"})) {
    out.push_back(attack_class_from_name(name));
  }
  return out;
}

std::vector<int> to_int_vector(const std::vector<long long>& v) {
  return std::vector<int>(v.begin(), v.end());
}

void require_non_empty(const std::vector<double>& v, const char* what) {
  LAD_REQUIRE_MSG(!v.empty(), "sweep list '" << what << "' is empty");
}

const KindDecl& kind_from_name(const std::string& name) {
  const std::string n = to_lower(name);
  for (const KindDecl& kind : experiment_kinds()) {
    if (n == kind.name) return kind;
  }
  LAD_REQUIRE_MSG(false, "unknown experiment kind: '" << name << "'");
  return experiment_kinds().front();  // unreachable
}

GroupThresholdMode group_threshold_mode_from_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "global") return GroupThresholdMode::kGlobal;
  if (n == "per_group") return GroupThresholdMode::kPerGroup;
  LAD_REQUIRE_MSG(false, "unknown group-threshold mode '"
                             << name << "' (known: global, per_group)");
  return GroupThresholdMode::kGlobal;  // unreachable
}

}  // namespace

const char* experiment_kind_name(ExperimentKind kind) {
  return detail::kind_decl(kind).name;
}

const char* group_threshold_mode_name(GroupThresholdMode mode) {
  switch (mode) {
    case GroupThresholdMode::kGlobal: return "global";
    case GroupThresholdMode::kPerGroup: return "per_group";
  }
  return "?";
}

bool is_known_localizer(const std::string& name) {
  if (name == "beaconless-mle" || name == "weighted-centroid" ||
      name == "dv-hop" || name == "amorphous") {
    return true;
  }
  if (name == "truth-noise" || starts_with(name, "truth-noise:")) {
    if (name == "truth-noise") return true;
    try {
      return parse_double(name.substr(std::string("truth-noise:").size())) >=
             0.0;
    } catch (const AssertionError&) {
      return false;
    }
  }
  return false;
}

LocalizerFactory localizer_factory_from_name(const std::string& name,
                                             const Pipeline& pipeline) {
  LAD_REQUIRE_MSG(is_known_localizer(name),
                  "unknown localizer '" << name
                                        << "' (known: beaconless-mle, "
                                           "weighted-centroid, dv-hop, "
                                           "amorphous, truth-noise:<sigma>)");
  if (name == "beaconless-mle") {
    return beaconless_mle_factory(pipeline.model(), pipeline.gz());
  }
  if (name == "weighted-centroid") {
    const DeploymentModel& model = pipeline.model();
    return [&model](std::uint64_t) {
      return std::make_unique<WeightedCentroidLocalizer>(model);
    };
  }
  if (name == "dv-hop") {
    return [](std::uint64_t) { return std::make_unique<DvHopLocalizer>(4, 4); };
  }
  if (name == "amorphous") {
    return [](std::uint64_t) {
      return std::make_unique<AmorphousLocalizer>(4, 4);
    };
  }
  double sigma = 10.0;
  if (starts_with(name, "truth-noise:")) {
    sigma = parse_double(name.substr(std::string("truth-noise:").size()));
  }
  return [sigma](std::uint64_t seed) {
    return std::make_unique<TruthNoiseLocalizer>(sigma, seed);
  };
}

ScenarioSpec ScenarioSpec::from_config(const KvConfig& config) {
  ScenarioSpec spec;
  const KvConfig::Section& sc = config.section("scenario");
  spec.name = sc.get_string("name", "");
  LAD_REQUIRE_MSG(!spec.name.empty(),
                  config.origin() << ": [scenario] name is required");
  spec.title = sc.get_string("title", spec.name);
  spec.note = sc.get_string("note", "");
  const std::string kind_name = sc.get_string("experiment", "");
  LAD_REQUIRE_MSG(!kind_name.empty(),
                  config.origin() << ": [scenario] experiment is required");
  const KindDecl& kind = kind_from_name(kind_name);
  spec.kind = kind.kind;

  // Section allowlist is kind-aware: a [gz] section in a dr-sweep spec is
  // dead configuration and almost certainly a mistake.
  for (const KvConfig::Section& s : config.sections()) {
    const auto& common = common_sections();
    if (std::find(common.begin(), common.end(), s.name()) != common.end() ||
        s.name() == kind.section) {
      continue;
    }
    for (const KindDecl& other : experiment_kinds()) {
      LAD_REQUIRE_MSG(s.name() != other.section,
                      config.origin()
                          << ": section [" << s.name()
                          << "] is only valid for experiment = " << other.name
                          << " (this is " << kind.name << ")");
    }
    LAD_REQUIRE_MSG(false, config.origin() << ": unknown section ["
                                           << s.name() << "]");
  }

  // The same for keys only some kinds read ("[quick] dvhop_trials" on a
  // gz-accuracy spec): each is rejected by name on every other kind.
  for (const KindDecl& reader : experiment_kinds()) {
    for (const std::string& key : reader.reads) {
      const std::size_t close = key.find("] ");
      const KvConfig::Section* section =
          config.find_section(key.substr(1, close - 1));
      if (section == nullptr || !section->has(key.substr(close + 2)) ||
          kind.reads_key(key)) {
        continue;
      }
      std::vector<std::string> readers;
      for (const KindDecl& k : experiment_kinds()) {
        if (k.reads_key(key)) readers.push_back(k.name);
      }
      LAD_REQUIRE_MSG(false, config.origin()
                                 << ": " << key << " is only read by "
                                 << join(readers, ", ") << " (this is "
                                 << kind.name << ")");
    }
  }

  spec.pipeline.seed = kDefaultScenarioSeed;
  if (const KvConfig::Section* p = config.find_section("pipeline")) {
    spec.pipeline.seed = static_cast<std::uint64_t>(
        p->get_int("seed", static_cast<long long>(kDefaultScenarioSeed)));
    spec.pipeline.networks = get_positive_int(*p, "networks", 10);
    spec.pipeline.victims_per_network = get_positive_int(*p, "victims", 200);
    spec.pipeline.deploy.nodes_per_group = get_positive_int(*p, "m", 300);
    spec.pipeline.deploy.radio_range = p->get_double("r", 50.0);
    spec.pipeline.deploy.sigma = p->get_double("sigma", 50.0);
    spec.pipeline.deploy.field_side = p->get_double("field", 1000.0);
    spec.pipeline.deploy.grid_nx = get_positive_int(*p, "grid_nx", 10);
    spec.pipeline.deploy.grid_ny = get_positive_int(*p, "grid_ny", 10);
    spec.pipeline.gz_omega = get_positive_int(*p, "gz_omega", 256);
    LAD_REQUIRE_MSG(spec.pipeline.gz_omega >= kMinGzOmega,
                    "[pipeline] gz_omega must be >= " << kMinGzOmega
                                                      << ", got "
                                                      << spec.pipeline.gz_omega);
    spec.pipeline.shape =
        deployment_shape_from_name(p->get_string("shape", "grid"));
    spec.pipeline.victims_in_field_only =
        p->get_bool("in_field_victims", true);
    spec.pipeline.deploy.validate();
  }

  if (const KvConfig::Section* q = config.find_section("quick")) {
    if (q->has("networks")) spec.quick.networks = get_positive_int(*q, "networks", 3);
    if (q->has("victims")) spec.quick.victims = get_positive_int(*q, "victims", 60);
    if (q->has("m")) spec.quick.m = get_positive_int(*q, "m", 60);
    if (q->has("trials")) spec.quick.trials = get_positive_int(*q, "trials", 60);
    if (q->has("dvhop_trials")) {
      spec.quick.dvhop_trials = get_positive_int(*q, "dvhop_trials", 30);
    }
    spec.quick.densities = to_int_vector(q->get_int_list("densities", {}));
  }

  spec.shapes = {spec.pipeline.shape};
  spec.localizers = {"beaconless-mle"};
  spec.metrics = {MetricKind::kDiff};
  spec.attacks = {AttackClass::kDecBounded};
  spec.damages = {120.0};
  spec.compromised = {0.10};
  spec.actual_sigmas = {0.0};
  spec.jitters = {0.0};
  if (const KvConfig::Section* s = config.find_section("sweep")) {
    if (s->has("shapes")) {
      spec.shapes.clear();
      for (const std::string& n : s->get_string_list("shapes", {})) {
        spec.shapes.push_back(deployment_shape_from_name(n));
      }
      LAD_REQUIRE_MSG(!spec.shapes.empty(), "sweep list 'shapes' is empty");
    }
    spec.localizers = s->get_string_list("localizers", spec.localizers);
    LAD_REQUIRE_MSG(!spec.localizers.empty(),
                    "sweep list 'localizers' is empty");
    for (const std::string& n : spec.localizers) {
      LAD_REQUIRE_MSG(is_known_localizer(n), "unknown localizer '" << n << "'");
    }
    if (s->has("metrics")) spec.metrics = parse_metrics(*s);
    LAD_REQUIRE_MSG(!spec.metrics.empty(), "sweep list 'metrics' is empty");
    if (s->has("attacks")) spec.attacks = parse_attacks(*s);
    LAD_REQUIRE_MSG(!spec.attacks.empty(), "sweep list 'attacks' is empty");
    spec.damages = s->get_double_list("damages", spec.damages);
    require_non_empty(spec.damages, "damages");
    spec.compromised = s->get_double_list("compromised", spec.compromised);
    require_non_empty(spec.compromised, "compromised");
    spec.densities = to_int_vector(s->get_int_list("densities", {}));
    spec.actual_sigmas = s->get_double_list("actual_sigmas", spec.actual_sigmas);
    require_non_empty(spec.actual_sigmas, "actual_sigmas");
    spec.jitters = s->get_double_list("jitters", spec.jitters);
    require_non_empty(spec.jitters, "jitters");
    const std::string coupling = s->get_string("mismatch_coupling", "axes");
    if (coupling == "axes") {
      spec.mismatch_coupling = MismatchCoupling::kAxes;
    } else if (coupling == "product") {
      spec.mismatch_coupling = MismatchCoupling::kProduct;
    } else {
      LAD_REQUIRE_MSG(false, "[sweep] mismatch_coupling must be 'axes' or "
                             "'product', got '"
                                 << coupling << "'");
    }
    if (s->has("group_thresholds")) {
      spec.group_threshold_modes.clear();
      for (const std::string& n : s->get_string_list("group_thresholds", {})) {
        spec.group_threshold_modes.push_back(
            group_threshold_mode_from_name(n));
      }
      LAD_REQUIRE_MSG(!spec.group_threshold_modes.empty(),
                      "sweep list 'group_thresholds' is empty");
    }
  }
  // Reject multi-valued axes the kind does not expand: the runner would
  // silently use only the first value, which breaks the fail-fast contract.
  for (const auto& [axis, n] : std::vector<std::pair<const char*, std::size_t>>{
           {"shapes", spec.shapes.size()},
           {"localizers", spec.localizers.size()},
           {"actual_sigmas", spec.actual_sigmas.size()},
           {"jitters", spec.jitters.size()},
           {"metrics", spec.metrics.size()},
           {"attacks", spec.attacks.size()},
           {"damages", spec.damages.size()},
           {"compromised", spec.compromised.size()}}) {
    LAD_REQUIRE_MSG(n <= 1 || kind.expands(axis),
                    "experiment '" << kind.name << "' does not sweep [sweep] "
                                   << axis << " (got " << n
                                   << " values; only the first would run)");
  }

  if (const KvConfig::Section* d = config.find_section("detector")) {
    spec.fp_budget = d->get_double("fp_budget", spec.fp_budget);
    spec.tau = d->get_double("tau", spec.tau);
    spec.group_min_samples =
        get_positive_int(*d, "group_min_samples", spec.group_min_samples);
    spec.bundle = d->get_string("bundle", "");
  }
  LAD_REQUIRE_MSG(spec.fp_budget > 0 && spec.fp_budget < 1,
                  "[detector] fp_budget must be in (0,1)");
  LAD_REQUIRE_MSG(spec.tau > 0 && spec.tau < 1,
                  "[detector] tau must be in (0,1)");

  if (const KvConfig::Section* r = config.find_section("run")) {
    spec.jobs = get_positive_int(*r, "jobs", 1);
  }

  spec.fp_grid = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
  if (const KvConfig::Section* o = config.find_section("output")) {
    spec.fp_grid = o->get_double_list("fp_grid", spec.fp_grid);
    require_non_empty(spec.fp_grid, "fp_grid");
    const long long pts = o->get_int("curve_points", spec.curve_points);
    LAD_REQUIRE_MSG(pts >= 0, "[output] curve_points must be >= 0");
    spec.curve_points = static_cast<int>(pts);
    spec.loc_error = o->get_bool("loc_error", spec.loc_error);
  }

  if (const KvConfig::Section* c = config.find_section("correction")) {
    spec.trials = get_positive_int(*c, "trials", spec.trials);
  }
  if (const KvConfig::Section* e = config.find_section("echo")) {
    spec.trials = get_positive_int(*e, "trials", spec.trials);
    spec.echo_grid_x = get_positive_int(*e, "grid_x", spec.echo_grid_x);
    spec.echo_grid_y = get_positive_int(*e, "grid_y", spec.echo_grid_y);
    spec.echo_range = e->get_double("range", spec.echo_range);
    spec.train_samples =
        get_positive_int(*e, "train_samples", spec.train_samples);
  }
  spec.omegas = {8, 16, 32, 64, 128, 256, 512, 1024, 4096};
  if (const KvConfig::Section* g = config.find_section("gz")) {
    spec.omegas = g->get_int_list("omegas", spec.omegas);
    LAD_REQUIRE_MSG(!spec.omegas.empty(), "sweep list 'omegas' is empty");
    for (long long omega : spec.omegas) {
      LAD_REQUIRE_MSG(omega >= kMinGzOmega, "[gz] omegas must be >= "
                                                << kMinGzOmega << ", got "
                                                << omega);
    }
  }
  spec.lies = {0, 100, 200, 400, 800, 1600, 3200};
  spec.dvhop_lies = {0, 400, 1600};
  if (const KvConfig::Section* m = config.find_section("mmse")) {
    spec.lies = m->get_double_list("lies", spec.lies);
    require_non_empty(spec.lies, "lies");
    spec.trials = get_positive_int(*m, "trials", spec.trials);
    spec.dvhop_lies = m->get_double_list("dvhop_lies", spec.dvhop_lies);
    spec.dvhop_trials = get_positive_int(*m, "dvhop_trials", spec.dvhop_trials);
  }
  spec.taus = {0.90, 0.95, 0.99, 0.999};
  spec.fudges = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
  if (const KvConfig::Section* t = config.find_section("threshold")) {
    spec.taus = t->get_double_list("taus", spec.taus);
    spec.fudges = t->get_double_list("fudges", spec.fudges);
    for (double tau : spec.taus) {
      LAD_REQUIRE_MSG(tau > 0 && tau < 1, "[threshold] taus must be in (0,1)");
    }
  }
  if (const KvConfig::Section* p = config.find_section("pdf")) {
    spec.pdf_grid = get_positive_int(*p, "grid", spec.pdf_grid);
    LAD_REQUIRE_MSG(spec.pdf_grid >= 2, "[pdf] grid must be >= 2");
  }
  if (const KvConfig::Section* e = config.find_section("evolve")) {
    spec.trials = get_positive_int(*e, "trials", spec.trials);
    spec.evolve_rounds = get_positive_int(*e, "rounds", spec.evolve_rounds);
    spec.evolve_step = get_positive_int(*e, "step", spec.evolve_step);
    const long long initial = e->get_int("initial", spec.evolve_initial);
    LAD_REQUIRE_MSG(initial >= 0,
                    "[evolve] initial must be >= 0, got " << initial);
    spec.evolve_initial = static_cast<int>(initial);
    spec.train_samples =
        get_positive_int(*e, "train_samples", spec.train_samples);
  }
  if (const KvConfig::Section* c = config.find_section("coop")) {
    spec.trials = get_positive_int(*c, "trials", spec.trials);
    spec.coop_radius = c->get_double("radius", spec.coop_radius);
    LAD_REQUIRE_MSG(spec.coop_radius > 0, "[coop] radius must be > 0, got "
                                              << spec.coop_radius);
    spec.coop_majority = c->get_double("majority", spec.coop_majority);
    LAD_REQUIRE_MSG(spec.coop_majority > 0 && spec.coop_majority <= 1,
                    "[coop] majority must be in (0,1], got "
                        << spec.coop_majority);
    spec.train_samples =
        get_positive_int(*c, "train_samples", spec.train_samples);
  }

  const std::vector<std::string> unknown = config.unused();
  LAD_REQUIRE_MSG(unknown.empty(), config.origin() << ": unknown key(s): "
                                                   << join(unknown, ", "));
  LAD_REQUIRE_MSG(detail::count_items(spec) > 0,
                  config.origin() << ": experiment '" << kind.name
                                  << "' expands to no work items (an axis it "
                                     "sweeps is empty: "
                                  << join(kind.axes, ", ") << ")");
  return spec;
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  return from_config(KvConfig::parse_file(path));
}

ScenarioSpec apply_overrides(ScenarioSpec spec, const ScenarioOverrides& o) {
  if (o.quick) {
    // Explicit [quick] values win; the fallback only ever shrinks the run
    // (a spec already smaller than the 3x60 default stays as it is).
    spec.pipeline.networks =
        spec.quick.networks.value_or(std::min(spec.pipeline.networks, 3));
    spec.pipeline.victims_per_network = spec.quick.victims.value_or(
        std::min(spec.pipeline.victims_per_network, 60));
    if (spec.quick.m) spec.pipeline.deploy.nodes_per_group = *spec.quick.m;
    if (spec.quick.trials) spec.trials = *spec.quick.trials;
    if (spec.quick.dvhop_trials) spec.dvhop_trials = *spec.quick.dvhop_trials;
    if (!spec.quick.densities.empty()) spec.densities = spec.quick.densities;
  }
  if (o.seed) spec.pipeline.seed = *o.seed;
  if (o.m) spec.pipeline.deploy.nodes_per_group = *o.m;
  if (o.networks) spec.pipeline.networks = *o.networks;
  if (o.victims) spec.pipeline.victims_per_network = *o.victims;
  if (o.threads) spec.pipeline.threads = *o.threads;
  if (o.jobs) spec.jobs = *o.jobs;
  if (o.r) spec.pipeline.deploy.radio_range = *o.r;
  if (o.sigma) spec.pipeline.deploy.sigma = *o.sigma;
  spec.pipeline.deploy.validate();
  return spec;
}

ScenarioOverrides overrides_from_flags(const Flags& flags) {
  ScenarioOverrides o;
  o.quick = flags.get_bool("quick", false);
  if (flags.has("seed")) {
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  }
  if (flags.has("m")) o.m = static_cast<int>(flags.get_int("m", 0));
  if (flags.has("networks")) {
    o.networks = static_cast<int>(flags.get_int("networks", 0));
  }
  if (flags.has("victims")) {
    o.victims = static_cast<int>(flags.get_int("victims", 0));
  }
  if (flags.has("threads")) {
    o.threads = static_cast<int>(flags.get_int("threads", 0));
  }
  if (flags.has("jobs")) {
    const long long jobs = flags.get_int("jobs", 1);
    // Rejected by name (never silently sequential or all-cores): a caller
    // computing jobs from a subtraction must see its bug immediately.
    LAD_REQUIRE_MSG(jobs >= 1,
                    "--jobs must be >= 1 (1 = sequential), got " << jobs);
    o.jobs = static_cast<int>(jobs);
  }
  if (flags.has("r")) o.r = flags.get_double("r", 0.0);
  if (flags.has("sigma")) o.sigma = flags.get_double("sigma", 0.0);
  return o;
}

ShardRange parse_shard(const std::string& text) {
  const auto parts = split(text, '/');
  LAD_REQUIRE_MSG(parts.size() == 2,
                  "bad shard '" << text << "': expected i/n (e.g. 0/4)");
  long long index = 0, count = 0;
  try {
    index = parse_int(trim(parts[0]));
    count = parse_int(trim(parts[1]));
  } catch (const AssertionError&) {
    LAD_REQUIRE_MSG(false,
                    "bad shard '" << text << "': expected i/n (e.g. 0/4)");
  }
  LAD_REQUIRE_MSG(count >= 1,
                  "bad shard '" << text << "': shard count must be >= 1");
  LAD_REQUIRE_MSG(index >= 0 && index < count,
                  "bad shard '" << text
                                << "': shard index must be in [0, count)");
  return ShardRange{static_cast<int>(index), static_cast<int>(count)};
}

std::vector<std::string> write_result_csvs(const ScenarioResult& result,
                                           const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  LAD_REQUIRE_MSG(!ec, "cannot create output directory '" << dir << "': "
                                                          << ec.message());
  std::vector<std::string> paths;
  for (const ResultTable& t : result.tables) {
    LAD_REQUIRE_MSG(t.row_items.size() == t.table.num_rows(),
                    "table '" << t.id << "': item tags out of sync");
    const fs::path path =
        fs::path(dir) / (result.scenario + "." + t.id + ".csv");
    // Write-then-rename so a killed run never leaves a truncated CSV
    // behind - `run --resume` treats a present file as complete.
    const fs::path tmp_path = path.string() + ".tmp";
    {
      std::ofstream os(tmp_path);
      LAD_REQUIRE_MSG(static_cast<bool>(os),
                      "cannot open '" << tmp_path.string()
                                      << "' for writing");
      os << "item";
      for (const std::string& col : t.table.columns()) {
        os << ',' << csv_escape(col);
      }
      os << '\n';
      for (std::size_t r = 0; r < t.table.num_rows(); ++r) {
        os << t.row_items[r];
        for (std::size_t c = 0; c < t.table.num_cols(); ++c) {
          os << ',' << csv_escape(t.table.cell(r, c));
        }
        os << '\n';
      }
      // Flush before checking: a tail-of-file write failure otherwise
      // hides in the stream buffer until the destructor, and the rename
      // below would install a truncated CSV that --resume trusts.
      os.flush();
      LAD_REQUIRE_MSG(static_cast<bool>(os),
                      "failed writing '" << tmp_path.string() << "'");
    }
    fs::rename(tmp_path, path, ec);
    LAD_REQUIRE_MSG(!ec, "cannot rename '" << tmp_path.string() << "' to '"
                                           << path.string()
                                           << "': " << ec.message());
    paths.push_back(path.string());
  }
  return paths;
}

void merge_result_csvs(const std::vector<std::string>& shard_dirs,
                       const std::string& out_dir, bool require_complete) {
  namespace fs = std::filesystem;
  LAD_REQUIRE_MSG(!shard_dirs.empty(), "merge: need at least one shard dir");

  const auto list_csvs = [](const std::string& dir) {
    std::vector<std::string> out;
    std::error_code list_ec;
    for (const auto& entry : fs::directory_iterator(dir, list_ec)) {
      if (entry.path().extension() == ".csv") {
        out.push_back(entry.path().filename().string());
      }
    }
    LAD_REQUIRE_MSG(!list_ec,
                    "merge: cannot list '" << dir << "': " << list_ec.message());
    std::sort(out.begin(), out.end());
    return out;
  };

  const std::vector<std::string> names = list_csvs(shard_dirs.front());
  LAD_REQUIRE_MSG(!names.empty(),
                  "merge: no .csv files in '" << shard_dirs.front() << "'");
  // Every shard of the same run writes the same table files (headers are
  // emitted even for empty shards), so a differing set means the dirs are
  // not shards of one run.
  for (std::size_t i = 1; i < shard_dirs.size(); ++i) {
    LAD_REQUIRE_MSG(list_csvs(shard_dirs[i]) == names,
                    "merge: '" << shard_dirs[i]
                               << "' holds a different table-file set than '"
                               << shard_dirs.front() << "'");
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  LAD_REQUIRE_MSG(!ec, "merge: cannot create '" << out_dir << "': "
                                                << ec.message());

  // Union of item tags across every table, for the completeness check:
  // a full shard set covers a contiguous 0..max range.
  std::set<long long> merged_items;

  for (const std::string& name : names) {
    std::string header;
    std::vector<std::pair<long long, std::string>> rows;
    // Work items are partitioned across shards, so the same item tag in
    // two shard dirs means overlapping shards (e.g. the same dir passed
    // twice, or dirs from runs with different --shard counts) - merging
    // them would silently duplicate rows.
    std::map<long long, const std::string*> item_origin;
    for (const std::string& dir : shard_dirs) {
      const fs::path path = fs::path(dir) / name;
      std::ifstream is(path);
      LAD_REQUIRE_MSG(static_cast<bool>(is),
                      "merge: shard file missing: " << path.string());
      std::string line;
      LAD_REQUIRE_MSG(static_cast<bool>(std::getline(is, line)),
                      "merge: empty shard file: " << path.string());
      if (header.empty()) {
        header = line;
      } else {
        LAD_REQUIRE_MSG(line == header, "merge: header mismatch in "
                                            << path.string());
      }
      while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::size_t comma = line.find(',');
        LAD_REQUIRE_MSG(comma != std::string::npos,
                        "merge: malformed row in " << path.string() << ": "
                                                   << line);
        const long long item = parse_int(line.substr(0, comma));
        const auto [it, inserted] = item_origin.emplace(item, &dir);
        LAD_REQUIRE_MSG(inserted || it->second == &dir,
                        "merge: overlapping shards: item " << item << " of "
                            << name << " appears in both '" << *it->second
                            << "' and '" << dir << "'");
        merged_items.insert(item);
        rows.emplace_back(item, line);
      }
    }
    // Items are partitioned across shards and each shard emits its items
    // in ascending order, so a stable sort by item tag reproduces the
    // unsharded row order exactly.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const fs::path out_path = fs::path(out_dir) / name;
    std::ofstream os(out_path);
    LAD_REQUIRE_MSG(static_cast<bool>(os),
                    "merge: cannot open '" << out_path.string()
                                           << "' for writing");
    os << header << '\n';
    for (const auto& [item, line] : rows) os << line << '\n';
  }

  if (require_complete && !merged_items.empty()) {
    std::vector<long long> missing;
    for (long long i = 0; i <= *merged_items.rbegin(); ++i) {
      if (!merged_items.count(i) && missing.size() < 8) missing.push_back(i);
    }
    if (!missing.empty()) {
      std::ostringstream os;
      for (std::size_t i = 0; i < missing.size(); ++i) {
        os << (i ? ", " : "") << missing[i];
      }
      LAD_REQUIRE_MSG(false, "merge: incomplete shard set: no rows for "
                             "item(s) " << os.str()
                                 << " - a shard dir is missing or its run "
                                    "died (pass every shard, or merge "
                                    "partial sets with require_complete "
                                    "off / --partial)");
    }
  }
}

}  // namespace lad
