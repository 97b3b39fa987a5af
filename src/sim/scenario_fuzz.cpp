#include "sim/scenario_fuzz.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "rng/rng.h"
#include "sim/scenario.h"
#include "sim/scenario_kinds.h"
#include "util/assert.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {

namespace {

using detail::experiment_kinds;
using detail::KeyDecl;
using detail::KeyType;
using detail::KindDecl;
using detail::Range;
using detail::scenario_keys;

// ---------------------------------------------------------------------
// Small drawing helpers over Rng (all deterministic per rng state).

long long draw(Rng& rng, long long lo, long long hi) {
  return rng.uniform_int(lo, hi);
}

bool chance(Rng& rng, double p) { return rng.uniform01() < p; }

template <class T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::uint64_t>(options.size())))];
}

// ---------------------------------------------------------------------
// Values drawn from a key row.

// `n` values of a numeric key, inside its range (open ends excluded) and
// exact at two decimals: lo + k * unit for k in [k0, k1], where an
// unbounded end sits 40 integers or 400 units past the other.  A list
// sometimes comes as one lo:hi:step range.
std::string numbers(Rng& rng, const KeyDecl& key, int n) {
  const Range& r = key.range;
  const bool is_int = key.type() == KeyType::kInt;
  const double lo = std::isfinite(r.lo) ? r.lo : 0.0;
  const double hi = std::isfinite(r.hi) ? r.hi : lo + (is_int ? 40 : 400);
  const double unit = is_int ? 1.0 : (hi - lo) / 100;
  const long long k0 = r.lo_open ? 1 : 0;
  const long long k1 = std::llround((hi - lo) / unit) - (r.hi_open ? 1 : 0);
  const auto value = [&](double base, long long k) {
    return format_double(base + static_cast<double>(k) * unit, is_int ? 0 : 2);
  };
  if (n > 1 && chance(rng, 0.35)) {
    const long long start = draw(rng, k0, (k0 + k1) / 2);
    const long long step = draw(rng, 1, std::max(1LL, (k1 - start) / (n - 1)));
    return value(lo, start) + ":" + value(lo, start + (n - 1) * step) + ":" +
           value(0.0, step);
  }
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(value(lo, draw(rng, k0, k1)));
  return join(out, ", ");
}

// A value of `key` the parser accepts; a list key gets up to `n` elements.
std::string valid_value(Rng& rng, const KeyDecl& key, int n) {
  switch (key.type()) {
    case KeyType::kInt:
    case KeyType::kDouble:
      return numbers(rng, key, n);
    case KeyType::kBool:
      return pick(rng, std::vector<std::string>{"true", "false", "yes", "no",
                                                "1", "0", "on", "off"});
    case KeyType::kString:
      return "fuzz_" + std::to_string(draw(rng, 0, 9999));
    case KeyType::kName:
      break;
  }
  // Distinct names: the first n of a partial shuffle.
  std::vector<std::string> names = key.names;
  const std::size_t count = std::min(names.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(names[i], names[static_cast<std::size_t>(draw(
                            rng, static_cast<long long>(i),
                            static_cast<long long>(names.size()) - 1))]);
  }
  names.resize(count);
  return join(names, ", ");
}

// A value just outside `key`'s range, or, for a double, a non-finite one.
std::string outside(Rng& rng, const KeyDecl& key) {
  const Range& r = key.range;
  if (key.type() == KeyType::kDouble && (!r.bounded() || chance(rng, 0.3))) {
    return pick(rng, std::vector<std::string>{"nan", "inf", "-inf"});
  }
  const bool below =
      std::isfinite(r.lo) && (!std::isfinite(r.hi) || chance(rng, 0.5));
  const double edge = below ? r.lo : r.hi;
  const bool open = below ? r.lo_open : r.hi_open;
  return format_double(open ? edge : below ? edge - 1 : edge + 1,
                       key.type() == KeyType::kInt ? 0 : 6);
}

// ---------------------------------------------------------------------
// Spec writer: accumulates lines, sprinkles comments and blank lines so
// the fuzzer also exercises the lexer's trivia handling.

class ScnWriter {
 public:
  explicit ScnWriter(Rng& rng) : rng_(rng) {}

  void section(const std::string& name) {
    trivia();
    text_ += "[" + name + "]\n";
  }

  void kv(const std::string& key, const std::string& value) {
    trivia();
    // Exercise both the canonical "key = value" form and tight "key=value".
    text_ += chance(rng_, 0.85) ? key + " = " + value + "\n"
                                : key + "=" + value + "\n";
  }

  const std::string& text() const { return text_; }

 private:
  void trivia() {
    if (chance(rng_, 0.10)) text_ += "\n";
    if (chance(rng_, 0.10)) {
      text_ += std::string(chance(rng_, 0.5) ? "# " : "; ") + "fuzz trivia\n";
    }
    if (chance(rng_, 0.05)) text_ += "   \n";
  }

  Rng& rng_;
  std::string text_;
};

/// A random valid spec of `kind` (see generate_valid_scn): any key row the
/// kind accepts may appear.  `[scenario] name` and `experiment` always do,
/// and so does every [sweep] axis the kind expands (density-sweep has no
/// default densities); only those axes take several values.
std::string generate_scn(Rng& rng, const KindDecl& kind) {
  ScnWriter w(rng);
  std::string section;
  for (const KeyDecl& key : scenario_keys()) {
    const std::string_view name = key.key;
    const bool sweep = key.section == std::string_view("sweep");
    const bool axis = sweep && kind.expands(key.key);
    const bool required = name == "name" || name == "experiment";
    if (!kind.accepts(key) || !(required || axis || chance(rng, 0.4))) {
      continue;
    }
    if (section != key.section) w.section(section = key.section);
    const int n = key.list() && (!sweep || axis)
                      ? static_cast<int>(draw(rng, 1, 3))
                      : 1;
    w.kv(key.key, name == "experiment" ? kind.name : valid_value(rng, key, n));
  }
  return w.text();
}

}  // namespace

std::string generate_valid_scn(Rng& rng) {
  return generate_scn(rng, pick(rng, experiment_kinds()));
}

// ---------------------------------------------------------------------
// Mutation mode.

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    const auto eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      if (pos < text.size()) lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool is_section_header(const std::string& line) {
  const std::string t{trim(line)};
  return !t.empty() && t.front() == '[' && t.back() == ']';
}

}  // namespace

const std::vector<std::string>& scn_mutation_classes() {
  static const std::vector<std::string> classes = {
      "unknown-key",      "unknown-section",   "duplicate-section",
      "duplicate-key",    "malformed-range",   "foreign-kind-section",
      "foreign-kind-key", "bad-enum",          "bad-value",
      "empty-sweep-list", "unswept-axis",      "unterminated-header"};
  return classes;
}

ScnMutation mutate_scn(const std::string& valid, Rng& rng,
                       const std::string& klass) {
  const std::string chosen =
      klass.empty() ? pick(rng, scn_mutation_classes()) : klass;
  std::vector<std::string> lines = split_lines(valid);
  const KvConfig config = KvConfig::parse_string(valid);
  const KindDecl& kind =
      detail::kind_decl(ScenarioSpec::from_config(config).kind);
  ScnMutation m;
  m.klass = chosen;

  // Sets `key = value` in `section`: over the key's line when the spec
  // sets it there, else just after the section header, else in a new
  // section at the end.  One bad assignment, no duplicates.
  const auto plant = [&](const std::string& section, const std::string& key,
                         const std::string& value) {
    const std::string line = key + " = " + value;
    const KvConfig::Section* s = config.find_section(section);
    if (s == nullptr) {
      lines.push_back("[" + section + "]");
      lines.push_back(line);
    } else if (const int at = s->line_of(key); at > 0) {
      lines[static_cast<std::size_t>(at - 1)] = line;
    } else {
      lines.insert(lines.begin() + s->line(), line);
    }
  };

  // A random key row satisfying `keep`.
  const auto key_where = [&](const auto& keep) -> const KeyDecl& {
    std::vector<const KeyDecl*> keys;
    for (const KeyDecl& key : scenario_keys()) {
      if (keep(key)) keys.push_back(&key);
    }
    LAD_REQUIRE_MSG(!keys.empty(), "no key for mutation '" << chosen << "'");
    return *pick(rng, keys);
  };

  if (chosen == "unknown-key") {
    m.needle = "frobnicate";
    plant("scenario", "frobnicate", "1");
  } else if (chosen == "unknown-section") {
    m.needle = "frobnicator";
    lines.push_back("[frobnicator]");
    lines.push_back("x = 1");
  } else if (chosen == "duplicate-section") {
    m.needle = "duplicate section";
    lines.push_back("[scenario]");
    lines.push_back("name = twice");
  } else if (chosen == "duplicate-key") {
    m.needle = "duplicate key";
    lines.insert(lines.begin() + config.section("scenario").line(),
                 std::string("experiment = ") + kind.name);
  } else if (chosen == "malformed-range") {
    if (chance(rng, 0.5)) {
      m.needle = "step must be > 0";
      plant("sweep", "damages", "40:160:0");
    } else {
      m.needle = "lo must be <= hi";
      plant("sweep", "damages", "160:40:20");
    }
  } else if (chosen == "foreign-kind-section") {
    // A valid key of a DIFFERENT kind's own section than the spec's.
    const KeyDecl& key = key_where([&](const KeyDecl& k) {
      return !detail::is_common_section(k.section) &&
             std::string_view(k.section) != kind.section;
    });
    m.needle = "[" + std::string(key.section) + "]";
    plant(key.section, key.key, valid_value(rng, key, 1));
  } else if (chosen == "foreign-kind-key") {
    // A key other kinds reserve, which the spec's kind does not read.
    const KeyDecl& key = key_where([&](const KeyDecl& k) {
      return !k.read_by(kind.kind);
    });
    m.needle = key.id();
    plant(key.section, key.key, "1");
  } else if (chosen == "bad-enum") {
    const KeyDecl& key = key_where([&](const KeyDecl& k) {
      return kind.accepts(k) && k.type() == KeyType::kName;
    });
    m.needle = "banana";
    plant(key.section, key.key, "banana");
  } else if (chosen == "bad-value") {
    const KeyDecl& key = key_where([&](const KeyDecl& k) {
      return kind.accepts(k) &&
             (k.type() == KeyType::kDouble ||
              (k.type() == KeyType::kInt && k.range.bounded()));
    });
    m.needle = key.id();
    plant(key.section, key.key, outside(rng, key));
  } else if (chosen == "empty-sweep-list") {
    m.needle = "empty";
    plant("sweep", "damages", "");
  } else if (chosen == "unswept-axis") {
    // Two localizers on a kind that does not expand them; a kind that does
    // (dr-sweep) instead gets densities, which only density-sweep reads.
    if (kind.expands("localizers")) {
      m.needle = "densities";
      plant("sweep", "densities", "100, 300");
    } else {
      m.needle = "localizers";
      plant("sweep", "localizers", "beaconless-mle, dv-hop");
    }
  } else if (chosen == "unterminated-header") {
    m.needle = "unterminated";
    lines.push_back("[broken");
  } else {
    LAD_REQUIRE_MSG(false, "unknown mutation class '" << chosen << "'");
  }

  m.text = join_lines(lines);
  return m;
}

void check_scn_accepted(const std::string& text) {
  const ScenarioSpec spec =
      ScenarioSpec::from_config(KvConfig::parse_string(text, "fuzz.scn"));
  ScenarioRunner runner(spec);
  LAD_REQUIRE_MSG(runner.num_items() > 0,
                  "spec '" << spec.name << "' expands to no work items");
  LAD_REQUIRE_MSG(!runner.table_ids().empty(),
                  "spec '" << spec.name << "' declares no result tables");
}

std::string shrink_scn(
    std::string text,
    const std::function<bool(const std::string&)>& still_fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::string> lines = split_lines(text);
    // Whole sections first (big strides), then single lines.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < lines.size();) {
        std::size_t span = 1;
        if (pass == 0) {
          if (!is_section_header(lines[i])) {
            ++i;
            continue;
          }
          while (i + span < lines.size() &&
                 !is_section_header(lines[i + span])) {
            ++span;
          }
        }
        std::vector<std::string> candidate = lines;
        candidate.erase(candidate.begin() + static_cast<long>(i),
                        candidate.begin() + static_cast<long>(i + span));
        const std::string candidate_text = join_lines(candidate);
        if (still_fails(candidate_text)) {
          lines = std::move(candidate);
          text = candidate_text;
          progress = true;
        } else {
          i += span;
        }
      }
    }
  }
  return text;
}

namespace {

// "" when the oracle agrees with `m` (no klass: the text must be accepted;
// otherwise rejected by a named error carrying the needle), else why not.
std::string misjudged(const ScnMutation& m) {
  try {
    check_scn_accepted(m.text);
    return m.klass.empty()
               ? ""
               : "silent acceptance of mutation class '" + m.klass + "'";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    if (m.klass.empty()) return "valid spec rejected: " + what;
    if (what.find(m.needle) == std::string::npos) {
      return "mutation '" + m.klass + "' rejected without naming '" +
             m.needle + "': " + what;
    }
    if (what.find(':') == std::string::npos) {
      return "mutation '" + m.klass +
             "' rejected without file:line context: " + what;
    }
    return "";
  } catch (const std::exception& e) {
    return (m.klass.empty() ? std::string("valid spec crashed the parser: ")
                            : "mutation '" + m.klass +
                                  "' crashed instead of asserting: ") +
           e.what();
  }
}

void note(std::vector<std::string>& seen, const std::string& name) {
  if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
    seen.push_back(name);
  }
}

}  // namespace

FuzzReport fuzz_scn(const FuzzOptions& options) {
  FuzzReport report;
  const std::vector<KindDecl>& kinds = experiment_kinds();
  const std::vector<std::string>& classes = scn_mutation_classes();
  for (long long i = 0; i < options.iters; ++i) {
    ++report.iterations;
    Rng rng = Rng::stream(options.seed, static_cast<std::uint64_t>(i));
    // Each mode round-robins first (valid mode the kinds, invalid mode the
    // mutation classes), so every run covers each one.
    const auto at = static_cast<std::size_t>(i);
    const KindDecl& kind = !options.invalid && at < kinds.size()
                               ? kinds[at]
                               : pick(rng, kinds);
    ScnMutation m{"", "", generate_scn(rng, kind)};
    if (options.invalid) {
      m = mutate_scn(m.text, rng, at < classes.size() ? classes[at] : "");
      note(report.classes_seen, m.klass);
    } else {
      note(report.kinds_seen, kind.name);
    }
    const std::string error = misjudged(m);
    if (error.empty()) continue;
    FuzzFailure f{i, options.invalid ? "invalid" : "valid", m.klass, error,
                  m.text, ""};
    if (options.minimize) {
      // Shrink while the spec fails the same way: still wrongly accepted,
      // or still wrongly rejected.
      const auto accepted = [](const std::string& why) {
        return why.rfind("silent acceptance", 0) == 0;
      };
      f.minimized = shrink_scn(m.text, [&](const std::string& t) {
        const std::string why = misjudged({m.klass, m.needle, t});
        return !why.empty() && accepted(why) == accepted(error);
      });
    }
    report.failures.push_back(std::move(f));
  }
  return report;
}

}  // namespace lad
