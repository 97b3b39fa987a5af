// Property fuzzer for the .scn surface (util/kvconfig + sim/scenario).
//
// Two modes over one seeded generator:
//
//  - valid:   emit a random-but-valid spec drawn from the key schema
//             (sim/scenario_kinds.h): any key the kind accepts, values
//             inside each key's range, comma lists and lo:hi:step
//             ranges, and require the parser AND the runner's item
//             accounting to accept it.
//  - invalid: take a valid spec, inject ONE invalid edit from a named
//             mutation class (unknown key, duplicate section/key,
//             malformed range, kind-foreign section or key, ...) and require a
//             named AssertionError that mentions the injected token -
//             never a crash, a hang, or silent acceptance.
//
// Failures carry the offending spec plus a greedy line/section-removal
// shrink to a minimal reproducer (see shrink_scn), ready to check in
// under tests/data/fuzz/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rng/rng.h"

namespace lad {

/// Emits a random spec text that must parse and expand.  Consumes `rng`;
/// the same rng state always produces the same text.
std::string generate_valid_scn(Rng& rng);

/// One injected invalid edit.
struct ScnMutation {
  std::string klass;   ///< mutation class, e.g. "unknown-key"
  std::string needle;  ///< token the rejection message must contain
  std::string text;    ///< the mutated spec
};

/// Names of every mutation class mutate_scn can produce (for coverage
/// assertions: a fuzz run must reject each class at least once).
const std::vector<std::string>& scn_mutation_classes();

/// Applies one random invalid edit to a valid spec.  Pass a non-empty
/// `klass` (one of scn_mutation_classes()) to force that class.
ScnMutation mutate_scn(const std::string& valid, Rng& rng,
                       const std::string& klass = "");

/// Parses + expands a spec text the way the CLI would, throwing
/// AssertionError on any problem (also when the expansion is empty or
/// the table ids are).  The fuzzer's oracle; exposed for tests.
void check_scn_accepted(const std::string& text);

/// Greedy minimization: repeatedly drop whole sections, then single
/// lines, keeping every removal for which `still_fails` stays true.
/// Terminates at a local fixpoint (no single removal reproduces).
std::string shrink_scn(std::string text,
                       const std::function<bool(const std::string&)>& still_fails);

struct FuzzFailure {
  long long iteration = 0;
  std::string mode;       ///< "valid" | "invalid"
  std::string klass;      ///< mutation class ("" in valid mode)
  std::string message;    ///< what went wrong
  std::string spec;       ///< offending spec text
  std::string minimized;  ///< shrunk reproducer ("" unless minimize)
};

struct FuzzReport {
  long long iterations = 0;
  /// Experiment kinds generated at least once (valid mode).
  std::vector<std::string> kinds_seen;
  /// Mutation classes exercised at least once (invalid mode).
  std::vector<std::string> classes_seen;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

struct FuzzOptions {
  std::uint64_t seed = 1;
  long long iters = 200;
  bool invalid = false;   ///< false: valid mode, true: mutation mode
  bool minimize = false;  ///< shrink failing specs to minimal reproducers
};

/// Runs the fuzz loop.  Iteration i draws from Rng::stream(seed, i), so
/// any failure reproduces from (seed, iteration) alone.
FuzzReport fuzz_scn(const FuzzOptions& options);

}  // namespace lad
