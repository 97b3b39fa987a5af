#include "util/string_util.h"

#include <gtest/gtest.h>

#include "util/assert.h"

namespace lad {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, PreservesEmptyFields) {
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, SingleField) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\nz\r "), "z");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsWith, Cases) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(ParseDouble, ValidInputs) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e3 "), -2000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW(parse_double("abc"), AssertionError);
  EXPECT_THROW(parse_double("1.5x"), AssertionError);
  EXPECT_THROW(parse_double(""), AssertionError);
}

TEST(ParseInt, ValidInputs) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(ParseInt, RejectsGarbageAndPartials) {
  EXPECT_THROW(parse_int("4.2"), AssertionError);
  EXPECT_THROW(parse_int("x"), AssertionError);
  EXPECT_THROW(parse_int(""), AssertionError);
}

TEST(CheckedInt, NarrowsInRangeAndNamesTheSourceOutOfRange) {
  EXPECT_EQ(checked_int(2147483647LL, "k"), 2147483647);
  EXPECT_EQ(checked_int(-2147483648LL, "k"), -2147483648LL);
  for (long long v : {2147483648LL, -2147483649LL, 4294967297LL}) {
    try {
      checked_int(v, "[pipeline] networks");
      ADD_FAILURE() << v << " narrowed";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("[pipeline] networks = " +
                                           std::to_string(v) +
                                           " is out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("AbC-12"), "abc-12");
}

}  // namespace
}  // namespace lad
