// A line-per-member dump of a parsed ScenarioSpec: the oracle for "these
// specs still parse to the same ScenarioSpec" (the parsed-spec golden in
// tests/data/scenario_goldens/parsed_specs.txt).
#pragma once

#include <string>

#include "sim/scenario.h"

namespace lad::test {

/// Every ScenarioSpec member as `member = value`, one per line.  Doubles
/// print with 17 significant digits, so any change in a parsed value shows.
std::string describe(const ScenarioSpec& spec);

}  // namespace lad::test
