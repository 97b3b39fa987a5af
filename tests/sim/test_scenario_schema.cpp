// The `.scn` key schema (sim/scenario_kinds.h): every ranged key is
// checked at its edges, and README's key table is rendered from the rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
using detail::scenario_keys;

// A minimal spec of the first kind that reads `key`, setting it to `value`.
std::string spec_setting(const KeyDecl& key, const std::string& value) {
  const KindDecl& kind =
      *std::find_if(experiment_kinds().begin(), experiment_kinds().end(),
                    [&](const KindDecl& k) { return k.accepts(key); });
  std::map<std::string, std::string> sections;
  sections["scenario"] =
      std::string("name = x\nexperiment = ") + kind.name + "\n";
  // density-sweep expands to no work items without densities.
  if (kind.kind == ExperimentKind::kDensitySweep &&
      key.id() != "[sweep] densities") {
    sections["sweep"] = "densities = 100\n";
  }
  sections[key.section] += std::string(key.key) + " = " + value + "\n";
  std::string text;
  for (const auto& [name, body] : sections) text += "[" + name + "]\n" + body;
  return text;
}

std::string number(const KeyDecl& key, double v) {
  if (key.type() == KeyType::kInt) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void expect_accepted(const KeyDecl& key, const std::string& value) {
  const std::string text = spec_setting(key, value);
  EXPECT_NO_THROW(ScenarioSpec::from_config(KvConfig::parse_string(text)))
      << text;
}

void expect_rejected(const KeyDecl& key, const std::string& value) {
  const std::string text = spec_setting(key, value);
  try {
    ScenarioSpec::from_config(KvConfig::parse_string(text));
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find(key.id()), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSchema, EachKeyHasOneRow) {
  std::set<std::string> ids;
  for (const KeyDecl& key : scenario_keys()) {
    EXPECT_TRUE(ids.insert(key.id()).second) << key.id();
  }
  EXPECT_EQ(ids.size(), 64u);
}

// Each bound of each ranged key: the edge value (the nearest value inside
// an open bound) is accepted, the nearest value past it is rejected by an
// error naming the key, and a double must be finite besides.
TEST(ScenarioSchema, EveryRangedKeyRejectsItsEdge) {
  int ranged = 0;
  for (const KeyDecl& key : scenario_keys()) {
    if (!key.range.bounded()) continue;
    SCOPED_TRACE(key.id());
    ++ranged;
    const bool is_int = key.type() == KeyType::kInt;
    for (const bool low : {true, false}) {
      const double edge = low ? key.range.lo : key.range.hi;
      if (!std::isfinite(edge)) continue;
      const bool open = low ? key.range.lo_open : key.range.hi_open;
      const double inward = low ? 1.0 : -1.0;
      const double in =
          is_int ? edge + inward : std::nextafter(edge, inward * HUGE_VAL);
      const double out =
          is_int ? edge - inward : std::nextafter(edge, -inward * HUGE_VAL);
      expect_accepted(key, number(key, open ? in : edge));
      expect_rejected(key, number(key, open ? edge : out));
    }
    if (key.type() == KeyType::kDouble) {
      for (const char* v : {"nan", "inf", "-inf"}) expect_rejected(key, v);
    }
  }
  EXPECT_GE(ranged, 40);
}

// README's key table, rendered from the rows.
std::string render_key_table() {
  static const std::map<KeyType, std::string> type_names = {
      {KeyType::kInt, "int"},       {KeyType::kDouble, "double"},
      {KeyType::kBool, "bool"},     {KeyType::kString, "string"},
      {KeyType::kName, "name"}};
  std::string out =
      "| key | type | values | read by |\n|---|---|---|---|\n";
  for (const KeyDecl& key : scenario_keys()) {
    std::vector<std::string> readers;
    for (const KindDecl& kind : experiment_kinds()) {
      if (kind.accepts(key)) readers.push_back(kind.name);
    }
    if (readers.size() == experiment_kinds().size()) readers = {"all"};
    out += "| `" + key.id() + "` | " + type_names.at(key.type()) +
           (key.list() ? " list" : "") + " | " +
           (key.type() == KeyType::kName ? join(key.names, ", ")
                                         : key.range.text()) +
           " | " + join(readers, ", ") + " |\n";
  }
  return out;
}

TEST(ScenarioSchema, ReadmeKeyTableMatchesTheRows) {
  std::ifstream is(std::string(LAD_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(is) << "cannot read README.md";
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string readme = ss.str();
  const std::string begin = "<!-- scn-keys:begin -->\n";
  const std::size_t from = readme.find(begin);
  const std::size_t to = readme.find("<!-- scn-keys:end -->");
  ASSERT_NE(from, std::string::npos) << "README.md has no scn-keys markers";
  ASSERT_NE(to, std::string::npos) << "README.md has no scn-keys:end marker";
  const std::string expected = render_key_table();
  EXPECT_EQ(readme.substr(from + begin.size(), to - from - begin.size()),
            expected)
      << "README.md's key table is out of date; put this between its "
         "scn-keys markers:\n"
      << expected;
}

}  // namespace
}  // namespace lad
