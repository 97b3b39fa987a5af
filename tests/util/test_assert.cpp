#include "util/assert.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace lad {
namespace {

TEST(Assert, RequirePassesOnTrue) {
  EXPECT_NO_THROW(LAD_REQUIRE(1 + 1 == 2));
}

TEST(Assert, RequireThrowsOnFalse) {
  EXPECT_THROW(LAD_REQUIRE(1 + 1 == 3), AssertionError);
}

TEST(Assert, RequireMessageIncludesExpressionAndLocation) {
  try {
    LAD_REQUIRE(2 < 1);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("test_assert.cpp"), std::string::npos);
  }
}

TEST(Assert, RequireMsgCarriesCustomMessage) {
  try {
    LAD_REQUIRE_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// The build maps the source directory away, so an error's location reads
// the same wherever the tree was built.
TEST(Assert, LocationIsRelativeToTheSourceTree) {
  try {
    checked_int(4294967297LL, "k");
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/util/string_util.cpp:"), std::string::npos)
        << what;
    EXPECT_EQ(what.find(LAD_SOURCE_DIR), std::string::npos) << what;
  }
}

TEST(Assert, RequireEvaluatesExpressionOnce) {
  int calls = 0;
  auto f = [&calls] {
    ++calls;
    return true;
  };
  LAD_REQUIRE(f());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace lad
