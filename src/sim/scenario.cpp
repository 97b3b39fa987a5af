// ScenarioSpec parsing/validation, overrides, shard syntax, the localizer
// registry, and tagged-CSV persistence.  The `.scn` key schema (one row
// per key, sim/scenario_kinds.h) is defined here and drives the parser;
// which sections and [sweep] axes a kind accepts comes from the kind
// table.  The work-item expansion and execution live in
// scenario_runner.cpp.
#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

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
using detail::KeyDecl;
using detail::KeyType;
using detail::KindDecl;
using detail::Range;

constexpr std::uint64_t kDefaultScenarioSeed = 20050404;  // IPDPS 2005 opened

// The localizer registry's names, without a pipeline (spec parsing).
// truth-noise takes an optional finite sigma >= 0.
bool is_known_localizer(const std::string& name) {
  if (name == "beaconless-mle" || name == "weighted-centroid" ||
      name == "dv-hop" || name == "amorphous" || name == "truth-noise") {
    return true;
  }
  if (!starts_with(name, "truth-noise:")) return false;
  try {
    const double sigma =
        parse_double(name.substr(std::string("truth-noise:").size()));
    return std::isfinite(sigma) && sigma >= 0.0;
  } catch (const AssertionError&) {
    return false;
  }
}

// --- the row dispatcher: every .scn value is read here -----------------

template <class T>
T in_range(const KeyDecl& key, T v) {
  const double d = static_cast<double>(v);
  LAD_REQUIRE_MSG(std::isfinite(d), key.id() << " must be finite, got " << v);
  LAD_REQUIRE_MSG(key.range.contains(d), key.id() << " must be "
                                                  << key.range.text()
                                                  << ", got " << v);
  return v;
}

// A name key's value.  Metrics, attack classes and shapes are parsed by
// their own layer, which also takes aliases ("dm", "hexagonal"); the sim
// layer's own enums are their row's names, in enumerator order.
template <class T>
T parse_name(const KeyDecl& key, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    LAD_REQUIRE_MSG(is_known_localizer(text),
                    key.id() << ": unknown localizer '" << text
                             << "' (truth-noise:<sigma> needs a finite "
                                "sigma >= 0)");
    return text;
  } else {
    constexpr bool own_layer = std::is_same_v<T, MetricKind> ||
                               std::is_same_v<T, AttackClass> ||
                               std::is_same_v<T, DeploymentShape>;
    try {
      if constexpr (std::is_same_v<T, MetricKind>) {
        return metric_from_name(text);
      } else if constexpr (std::is_same_v<T, AttackClass>) {
        return attack_class_from_name(text);
      } else if constexpr (std::is_same_v<T, DeploymentShape>) {
        return deployment_shape_from_name(text);
      }
    } catch (const AssertionError&) {
    }
    const auto it =
        std::find(key.names.begin(), key.names.end(), to_lower(text));
    LAD_REQUIRE_MSG(!own_layer && it != key.names.end(),
                    key.id() << " must be one of " << join(key.names, ", ")
                             << ", got '" << text << "'");
    return static_cast<T>(it - key.names.begin());
  }
}

using Section = KvConfig::Section;

void assign(const KeyDecl& k, const Section& s, int& out) {
  out = checked_int(in_range(k, s.get_int(k.key, 0)), k.id());
}
void assign(const KeyDecl& k, const Section& s, std::optional<int>& out) {
  out = checked_int(in_range(k, s.get_int(k.key, 0)), k.id());
}
void assign(const KeyDecl& k, const Section& s, std::uint64_t& out) {
  out = static_cast<std::uint64_t>(s.get_int(k.key, 0));
}
void assign(const KeyDecl& k, const Section& s, double& out) {
  out = in_range(k, s.get_double(k.key, 0.0));
}
void assign(const KeyDecl& k, const Section& s, bool& out) {
  out = s.get_bool(k.key, false);
}
void assign(const KeyDecl& k, const Section& s, std::string& out) {
  out = s.get_string(k.key, "");
}
void assign(const KeyDecl& k, const Section& s, std::vector<int>& out) {
  out.clear();
  for (long long v : s.get_int_list(k.key, {})) {
    out.push_back(checked_int(in_range(k, v), k.id()));
  }
}
void assign(const KeyDecl& k, const Section& s, std::vector<double>& out) {
  out = s.get_double_list(k.key, {});
  for (double v : out) in_range(k, v);
}
template <class T>
void assign(const KeyDecl& k, const Section& s, T& out) {
  out = parse_name<T>(k, s.get_string(k.key, ""));
}
template <class T>
void assign(const KeyDecl& k, const Section& s, std::vector<T>& out) {
  out.clear();
  for (const std::string& name : s.get_string_list(k.key, {})) {
    out.push_back(parse_name<T>(k, name));
  }
}

/// Reads `key` into its spec member when the spec sets it; returns whether
/// it does.
bool read_key(const KeyDecl& key, const KvConfig& config, ScenarioSpec& spec) {
  const Section* s = config.find_section(key.section);
  if (s == nullptr || !s->has(key.key)) return false;
  std::visit([&](auto get) { assign(key, *s, get(spec)); }, key.member);
  return true;
}

// The element type of a key's member, and whether the member is a list.
template <class T>
struct Element {
  using type = T;
  static constexpr bool list = false;
};
template <class T>
struct Element<std::optional<T>> : Element<T> {};
template <class T>
struct Element<std::vector<T>> : Element<T> {
  static constexpr bool list = true;
};
template <class F>
using ElementOf = Element<std::remove_reference_t<
    std::invoke_result_t<F, ScenarioSpec&>>>;

}  // namespace

const char* experiment_kind_name(ExperimentKind kind) {
  return detail::kind_decl(kind).name;
}

namespace detail {

std::string Range::text() const {
  std::ostringstream os;
  if (std::isfinite(lo) && std::isfinite(hi)) {
    os << "in " << (lo_open ? '(' : '[') << lo << ',' << hi
       << (hi_open ? ')' : ']');
  } else if (std::isfinite(lo)) {
    os << (lo_open ? "> " : ">= ") << lo;
  } else if (std::isfinite(hi)) {
    os << (hi_open ? "< " : "<= ") << hi;
  }
  return os.str();
}

KeyType KeyDecl::type() const {
  return std::visit(
      [this](auto get) {
        using T = typename ElementOf<decltype(get)>::type;
        if constexpr (std::is_same_v<T, bool>) return KeyType::kBool;
        if constexpr (std::is_integral_v<T>) return KeyType::kInt;
        if constexpr (std::is_floating_point_v<T>) return KeyType::kDouble;
        return names.empty() ? KeyType::kString : KeyType::kName;
      },
      member);
}

bool KeyDecl::list() const {
  return std::visit(
      [](auto get) { return ElementOf<decltype(get)>::list; }, member);
}

// The member a row fills, as a Member<T> (sim/scenario_kinds.h).
#define LAD_MEMBER(path) +[](ScenarioSpec& s) -> auto& { return s.path; }

const std::vector<KeyDecl>& scenario_keys() {
  static const std::vector<KeyDecl> keys = [] {
    using K = ExperimentKind;
    const Range positive{0, Range{}.hi, true};
    const Range non_negative{0};
    const Range unit{0, 1};
    const Range open_unit{0, 1, true, true};
    const std::vector<K> trial_kinds = {K::kCorrection, K::kEchoComparison,
                                        K::kMmseVulnerability,
                                        K::kTimeEvolving, K::kInNetwork};
    const std::vector<std::string> shapes = {"grid", "hex", "random"};
    const std::vector<std::string> modes(kGroupThresholdModeNames.begin(),
                                         kGroupThresholdModeNames.end());
    std::vector<std::string> kinds;
    for (const KindDecl& kind : experiment_kinds()) kinds.push_back(kind.name);
    const std::vector<std::pair<const char*, std::vector<KeyDecl>>> sections{
        {"scenario",
         {{"name", LAD_MEMBER(name)},
          {"title", LAD_MEMBER(title)},
          {"experiment", LAD_MEMBER(kind), {}, {}, kinds},
          {"note", LAD_MEMBER(note)}}},
        {"pipeline",
         {{"seed", LAD_MEMBER(pipeline.seed)},
          {"networks", LAD_MEMBER(pipeline.networks), positive},
          {"victims", LAD_MEMBER(pipeline.victims_per_network), positive},
          {"m", LAD_MEMBER(pipeline.deploy.nodes_per_group), positive},
          {"r", LAD_MEMBER(pipeline.deploy.radio_range), positive},
          {"sigma", LAD_MEMBER(pipeline.deploy.sigma), positive},
          {"field", LAD_MEMBER(pipeline.deploy.field_side), positive},
          {"grid_nx", LAD_MEMBER(pipeline.deploy.grid_nx), positive},
          {"grid_ny", LAD_MEMBER(pipeline.deploy.grid_ny), positive},
          {"gz_omega", LAD_MEMBER(pipeline.gz_omega), Range{kMinGzOmega}},
          {"shape", LAD_MEMBER(pipeline.shape), {}, {}, shapes},
          {"in_field_victims", LAD_MEMBER(pipeline.victims_in_field_only)}}},
        {"quick",
         {{"networks", LAD_MEMBER(quick.networks), positive},
          {"victims", LAD_MEMBER(quick.victims), positive},
          {"m", LAD_MEMBER(quick.m), positive},
          {"trials", LAD_MEMBER(quick.trials), positive, trial_kinds},
          {"dvhop_trials", LAD_MEMBER(quick.dvhop_trials), positive,
           {K::kMmseVulnerability}},
          {"densities", LAD_MEMBER(quick.densities), positive,
           {K::kDensitySweep}}}},
        {"sweep",
         {{"shapes", LAD_MEMBER(shapes), {}, {}, shapes},
          {"localizers", LAD_MEMBER(localizers), {}, {},
           {"beaconless-mle", "weighted-centroid", "dv-hop", "amorphous",
            "truth-noise"}},
          {"metrics", LAD_MEMBER(metrics), {}, {}, {"diff", "add-all", "prob"}},
          {"attacks", LAD_MEMBER(attacks), {}, {}, {"dec-bounded", "dec-only"}},
          {"damages", LAD_MEMBER(damages), non_negative},
          {"compromised", LAD_MEMBER(compromised), unit},
          {"densities", LAD_MEMBER(densities), positive, {K::kDensitySweep}},
          {"actual_sigmas", LAD_MEMBER(actual_sigmas), non_negative},
          {"jitters", LAD_MEMBER(jitters), non_negative},
          {"mismatch_coupling", LAD_MEMBER(mismatch_coupling), {}, {},
           {"axes", "product"}},
          {"group_thresholds", LAD_MEMBER(group_threshold_modes), {},
           {K::kDrSweep}, modes}}},
        {"detector",
         {{"fp_budget", LAD_MEMBER(fp_budget), open_unit},
          {"tau", LAD_MEMBER(tau), open_unit},
          {"group_min_samples", LAD_MEMBER(group_min_samples), positive,
           {K::kDrSweep}},
          {"bundle", LAD_MEMBER(bundle), {}, {K::kMetricFusion}}}},
        {"run", {{"jobs", LAD_MEMBER(jobs), positive}}},
        {"output",
         {{"fp_grid", LAD_MEMBER(fp_grid), unit, {K::kRoc}},
          {"curve_points", LAD_MEMBER(curve_points), non_negative, {K::kRoc}},
          {"loc_error", LAD_MEMBER(loc_error), {}, {K::kDrSweep}}}},
        {"correction", {{"trials", LAD_MEMBER(trials), positive}}},
        {"echo",
         {{"trials", LAD_MEMBER(trials), positive},
          {"grid_x", LAD_MEMBER(echo_grid_x), positive},
          {"grid_y", LAD_MEMBER(echo_grid_y), positive},
          {"range", LAD_MEMBER(echo_range), positive},
          {"train_samples", LAD_MEMBER(train_samples), positive}}},
        {"gz", {{"omegas", LAD_MEMBER(omegas), Range{kMinGzOmega}}}},
        {"mmse",
         {{"lies", LAD_MEMBER(lies), non_negative},
          {"trials", LAD_MEMBER(trials), positive},
          {"dvhop_lies", LAD_MEMBER(dvhop_lies), non_negative},
          {"dvhop_trials", LAD_MEMBER(dvhop_trials), positive}}},
        {"threshold",
         {{"taus", LAD_MEMBER(taus), open_unit},
          {"fudges", LAD_MEMBER(fudges), positive}}},
        {"pdf", {{"grid", LAD_MEMBER(pdf_grid), Range{2}}}},
        {"evolve",
         {{"trials", LAD_MEMBER(trials), positive},
          {"rounds", LAD_MEMBER(evolve_rounds), positive},
          {"step", LAD_MEMBER(evolve_step), positive},
          {"initial", LAD_MEMBER(evolve_initial), non_negative},
          {"train_samples", LAD_MEMBER(train_samples), positive}}},
        {"coop",
         {{"trials", LAD_MEMBER(trials), positive},
          {"radius", LAD_MEMBER(coop_radius), positive},
          {"majority", LAD_MEMBER(coop_majority), Range{0, 1, true, false}},
          {"train_samples", LAD_MEMBER(train_samples), positive}}},
    };
    std::vector<KeyDecl> rows;
    for (const auto& [section, section_rows] : sections) {
      for (KeyDecl row : section_rows) {
        row.section = section;
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }();
  return keys;
}

#undef LAD_MEMBER

}  // namespace detail

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
  spec.pipeline.seed = kDefaultScenarioSeed;
  const std::vector<KeyDecl>& keys = detail::scenario_keys();
  // [scenario] first: its experiment decides which sections and keys the
  // rest of the spec may set.
  const auto scenario_key = [&](std::string_view name) {
    return read_key(*std::find_if(keys.begin(), keys.end(),
                                  [&](const KeyDecl& key) {
                                    return key.key == name;
                                  }),
                    config, spec);
  };
  LAD_REQUIRE_MSG(scenario_key("name") && !spec.name.empty(),
                  config.origin() << ": [scenario] name is required");
  LAD_REQUIRE_MSG(scenario_key("experiment"),
                  config.origin() << ": [scenario] experiment is required");
  if (!scenario_key("title")) spec.title = spec.name;
  scenario_key("note");
  const KindDecl& kind = detail::kind_decl(spec.kind);

  // Section allowlist is kind-aware: a [gz] section in a dr-sweep spec is
  // dead configuration and almost certainly a mistake.
  for (const KvConfig::Section& s : config.sections()) {
    if (detail::is_common_section(s.name()) || s.name() == kind.section) {
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

  // Then every other key: read, or, when only other kinds read it
  // ("[quick] dvhop_trials" on a gz-accuracy spec), rejected by name.
  for (const KeyDecl& key : keys) {
    if (!key.read_by(spec.kind)) {
      const KvConfig::Section* section = config.find_section(key.section);
      if (section == nullptr || !section->has(key.key)) continue;
      std::vector<std::string> readers;
      for (ExperimentKind k : key.kinds) {
        readers.push_back(experiment_kind_name(k));
      }
      LAD_REQUIRE_MSG(false, config.origin()
                                 << ": " << key.id() << " is only read by "
                                 << join(readers, ", ") << " (this is "
                                 << kind.name << ")");
    }
    if (key.section != std::string_view("scenario")) {
      read_key(key, config, spec);
    }
  }
  if (spec.shapes.empty()) spec.shapes = {spec.pipeline.shape};
  spec.pipeline.deploy.validate();

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
  if (flags.has("m")) o.m = checked_int(flags.get_int("m", 0), "--m");
  if (flags.has("networks")) {
    o.networks = checked_int(flags.get_int("networks", 0), "--networks");
  }
  if (flags.has("victims")) {
    o.victims = checked_int(flags.get_int("victims", 0), "--victims");
  }
  if (flags.has("threads")) {
    o.threads = checked_int(flags.get_int("threads", 0), "--threads");
  }
  if (flags.has("jobs")) {
    const long long jobs = flags.get_int("jobs", 1);
    // Rejected by name (never silently sequential or all-cores): a caller
    // computing jobs from a subtraction must see its bug immediately.
    LAD_REQUIRE_MSG(jobs >= 1,
                    "--jobs must be >= 1 (1 = sequential), got " << jobs);
    o.jobs = checked_int(jobs, "--jobs");
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
  const int n = checked_int(count, "bad shard '" + text + "': count");
  return ShardRange{static_cast<int>(index), n};
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
