#include "sim/scenario_fuzz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "sim/scenario_kinds.h"
#include "util/assert.h"

namespace lad {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The same (seed, stream) pair must always emit the same spec text:
// every fuzz failure reproduces from its iteration index alone.
TEST(ScenarioFuzz, GenerationIsDeterministicPerStream) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  const std::string first = generate_valid_scn(a);
  const std::string second = generate_valid_scn(b);
  EXPECT_EQ(first, second);

  Rng c = Rng::stream(42, 8);
  EXPECT_NE(first, generate_valid_scn(c));
}

// Every generated spec must survive the full parse + expand oracle.
TEST(ScenarioFuzz, GeneratedSpecsAreAccepted) {
  for (std::uint64_t item = 0; item < 64; ++item) {
    Rng rng = Rng::stream(9001, item);
    const std::string text = generate_valid_scn(rng);
    EXPECT_NO_THROW(check_scn_accepted(text))
        << "stream " << item << " generated a rejected spec:\n"
        << text;
  }
}

// The checked-in scenario specs pass the same oracle the fuzzer uses,
// so a green fuzz run vouches for the real specs' schema too.
TEST(ScenarioFuzz, OracleAcceptsCheckedInSpecs) {
  const std::filesystem::path dir = LAD_SCENARIO_DIR;
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    EXPECT_NO_THROW(check_scn_accepted(read_file(entry.path())))
        << entry.path();
    ++count;
  }
  EXPECT_GE(count, 20);  // 19 figure/table specs + quickstart
}

// Each mutation class must turn an accepted spec into one rejected by a
// named AssertionError that carries both the class's needle token and
// file:line context -- never a crash or silent acceptance.
TEST(ScenarioFuzz, EveryMutationClassIsRejectedWithItsNeedle) {
  const std::vector<std::string>& classes = scn_mutation_classes();
  ASSERT_GE(classes.size(), 10u);
  for (const std::string& klass : classes) {
    for (std::uint64_t item = 0; item < 8; ++item) {
      Rng rng = Rng::stream(77, item);
      const std::string valid = generate_valid_scn(rng);
      const ScnMutation mut = mutate_scn(valid, rng, klass);
      EXPECT_EQ(mut.klass, klass);
      EXPECT_NE(mut.text, valid) << klass << " produced no edit";
      try {
        check_scn_accepted(mut.text);
        FAIL() << klass << " (stream " << item
               << ") was silently accepted:\n"
               << mut.text;
      } catch (const AssertionError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(mut.needle), std::string::npos)
            << klass << ": '" << what << "' lacks needle '" << mut.needle
            << "'";
        EXPECT_NE(what.find(':'), std::string::npos)
            << klass << ": no file:line context in '" << what << "'";
      }
    }
  }
}

// Greedy shrinking keeps the failure alive while stripping everything
// irrelevant, down to a local fixpoint.
TEST(ScenarioFuzz, ShrinkFindsAMinimalReproducer) {
  Rng rng = Rng::stream(5, 0);
  const std::string valid = generate_valid_scn(rng);
  const ScnMutation mut = mutate_scn(valid, rng, "unknown-key");

  const auto still_fails = [&](const std::string& text) {
    try {
      check_scn_accepted(text);
      return false;
    } catch (const AssertionError& e) {
      return std::string(e.what()).find(mut.needle) != std::string::npos;
    } catch (...) {
      return false;
    }
  };
  ASSERT_TRUE(still_fails(mut.text));

  const std::string minimal = shrink_scn(mut.text, still_fails);
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_LT(minimal.size(), mut.text.size());

  // The reproducer must keep the planted key but shed the noise: at the
  // fixpoint no unrelated sweep/detector/output lines survive.
  EXPECT_NE(minimal.find(mut.needle), std::string::npos);
  const long long lines =
      std::count(minimal.begin(), minimal.end(), '\n');
  EXPECT_LE(lines, 12) << "shrink left too much behind:\n" << minimal;
}

// The checked-in minimal reproducers under tests/data/fuzz/ must stay
// rejected -- a regression that starts accepting one is a schema hole.
TEST(ScenarioFuzz, CorpusReproducersStayRejected) {
  const std::filesystem::path dir =
      std::filesystem::path(LAD_TEST_DATA_DIR) / "fuzz";
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    EXPECT_THROW(check_scn_accepted(read_file(entry.path())),
                 AssertionError)
        << entry.path() << " is no longer rejected";
    ++count;
  }
  EXPECT_GE(count, 3);
}

// The library-level loop: a short run must be clean and cover, via the
// forced round-robin prefixes, every kind in the kind table (valid mode)
// and every mutation class (invalid mode).
TEST(ScenarioFuzz, ShortFuzzRunsAreCleanAndCoverEveryClass) {
  FuzzOptions valid_opts;
  valid_opts.seed = 3;
  valid_opts.iters = 20;
  const FuzzReport valid_report = fuzz_scn(valid_opts);
  EXPECT_TRUE(valid_report.ok());
  EXPECT_EQ(valid_report.iterations, 20);
  std::vector<std::string> kinds;
  for (const detail::KindDecl& kind : detail::experiment_kinds()) {
    kinds.push_back(kind.name);
  }
  std::vector<std::string> seen = valid_report.kinds_seen;
  std::sort(kinds.begin(), kinds.end());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, kinds);

  FuzzOptions invalid_opts;
  invalid_opts.seed = 3;
  invalid_opts.iters = 20;
  invalid_opts.invalid = true;
  const FuzzReport invalid_report = fuzz_scn(invalid_opts);
  EXPECT_TRUE(invalid_report.ok());
  EXPECT_EQ(invalid_report.classes_seen.size(),
            scn_mutation_classes().size());
}

}  // namespace
}  // namespace lad
