#include "deploy/gz_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "deploy/gz.h"
#include "geom/vec2.h"
#include "stats/interp.h"
#include "util/assert.h"

namespace lad {
namespace {

TEST(GzTable, AgreesWithExactAtTablePoints) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 64);
  const double hi = table.support_radius();
  for (int i = 0; i <= 64; ++i) {
    const double z = hi * i / 64.0;
    EXPECT_NEAR(table(z), gz_exact(z, params), 1e-12) << "z = " << z;
  }
}

TEST(GzTable, InterpolationErrorSmallAtDefaultResolution) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params);
  // Section 3.3: "omega does not need to be very large" - the default 256
  // already interpolates to ~1e-5 absolute error.
  EXPECT_LT(table.max_abs_error(), 5e-5);
}

TEST(GzTable, ErrorDecreasesWithOmega) {
  const GzParams params{50.0, 50.0};
  const GzTable coarse(params, 16);
  const GzTable fine(params, 512);
  EXPECT_LT(fine.max_abs_error(500), coarse.max_abs_error(500) / 50.0);
}

TEST(GzTable, ZeroBeyondSupport) {
  const GzTable table(GzParams{50.0, 50.0}, 64);
  EXPECT_DOUBLE_EQ(table(table.support_radius()), 0.0);
  EXPECT_DOUBLE_EQ(table(1e9), 0.0);
}

TEST(GzTable, NegativeInputClampsToZeroDistance) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 64);
  EXPECT_DOUBLE_EQ(table(-5.0), table(0.0));
}

TEST(GzTable, AtComputesPointDistances) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 256);
  const Vec2 dp{100, 100};
  EXPECT_DOUBLE_EQ(table.at({100, 100}, dp), table(0.0));
  EXPECT_NEAR(table.at({130, 140}, dp), table(50.0), 1e-12);
}

TEST(GzTable, RejectsUselessOmega) {
  EXPECT_THROW(GzTable(GzParams{50.0, 50.0}, 4), AssertionError);
}

// ---- the process-wide memo -------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The table GzTable sampled before the memo: the same lambda, range and
/// omega, built fresh.
InterpTable fresh_table(const GzParams& params, int omega) {
  return InterpTable([&params](double z) { return gz_exact(z, params); },
                     0.0, gz_support_radius(params), omega);
}

/// Every sample point and every midpoint, compared as bit patterns.
void expect_bit_identical(const GzTable& table, const InterpTable& fresh) {
  ASSERT_EQ(table.omega(), fresh.omega());
  ASSERT_EQ(bits_of(table.support_radius()), bits_of(fresh.hi()));
  const int points = 2 * fresh.omega();
  for (int i = 0; i < points; ++i) {
    const double z = fresh.hi() * i / points;
    ASSERT_EQ(bits_of(table(z)), bits_of(fresh(z)))
        << "z = " << z << ", omega = " << fresh.omega();
  }
}

TEST(GzTable, MemoisedValuesMatchAFreshSampleBitForBit) {
  for (const GzParams& params :
       {GzParams{50.0, 50.0}, GzParams{45.0, 25.0}, GzParams{50.0, 75.0}}) {
    for (int omega : {8, 256, 4096}) {
      const InterpTable fresh = fresh_table(params, omega);
      // The first construction may sample; the second reads the memo.
      const GzTable first(params, omega);
      const GzTable second(params, omega);
      expect_bit_identical(first, fresh);
      expect_bit_identical(second, fresh);
    }
  }
}

TEST(GzTable, KeysDifferingInOneBitOrInTolDoNotAlias) {
  const GzParams base{47.0, 31.0};
  const GzParams next_sigma{47.0, std::nextafter(31.0, 64.0)};
  const GzParams loose_tol{47.0, 31.0, 1e-4};
  ASSERT_NE(bits_of(base.sigma), bits_of(next_sigma.sigma));
  // Memoise the base key first, so an aliasing lookup would return it.
  const GzTable a(base, 64);
  const GzTable b(next_sigma, 64);
  const GzTable c(loose_tol, 64);
  expect_bit_identical(a, fresh_table(base, 64));
  expect_bit_identical(b, fresh_table(next_sigma, 64));
  expect_bit_identical(c, fresh_table(loose_tol, 64));
  EXPECT_EQ(b.params().sigma, next_sigma.sigma);
  EXPECT_EQ(c.params().tol, loose_tol.tol);
  // And the keys really sample different rows, so the checks above can
  // tell them apart.
  bool b_differs = false;
  bool c_differs = false;
  for (int i = 0; i <= 64; ++i) {
    const double z = a.support_radius() * i / 64;
    b_differs |= bits_of(a(z)) != bits_of(b(z));
    c_differs |= bits_of(a(z)) != bits_of(c(z));
  }
  EXPECT_TRUE(b_differs);
  EXPECT_TRUE(c_differs);
}

TEST(GzTable, ConcurrentConstructionsOfSameAndDifferentKeysAgree) {
  // Keys no other test uses, so the first constructions race for real.
  const std::vector<GzParams> keys = {
      {43.0, 37.0}, {43.0, 38.0}, {43.0, 39.0}, {43.0, 40.0}};
  constexpr int kThreads = 4;
  constexpr int kOmega = 128;
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&keys, &seen, t] {
      // Every thread builds the shared key 0 and its own key t, in an
      // order that differs per thread.
      for (const std::size_t k : {static_cast<std::size_t>(t), std::size_t{0}}) {
        const GzTable table(keys[k], kOmega);
        // Up to the last sample point: at support_radius GzTable reads 0.
        for (int i = 0; i < kOmega; ++i) {
          seen[static_cast<std::size_t>(t)].push_back(
              bits_of(table(table.support_radius() * i / kOmega)));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::uint64_t> expected;
    for (const std::size_t k : {static_cast<std::size_t>(t), std::size_t{0}}) {
      const InterpTable fresh = fresh_table(keys[k], kOmega);
      for (int i = 0; i < kOmega; ++i) {
        expected.push_back(bits_of(fresh(fresh.hi() * i / kOmega)));
      }
    }
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], expected) << "thread " << t;
  }
}

TEST(GzTable, FailedBuildRethrowsItsNamedErrorAndDoesNotPoisonTheMemo) {
  // sigma = 0 fails inside the first gz_exact sample.  Concurrent callers
  // all see that error, and the key keeps failing by name rather than
  // returning a half-built row.
  const GzParams degenerate{50.0, 0.0};
  constexpr int kThreads = 4;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&degenerate, &errors, t] {
      try {
        const GzTable table(degenerate, 64);
      } catch (const AssertionError& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& error : errors) {
    EXPECT_NE(error.find("R and sigma must be positive"), std::string::npos)
        << "'" << error << "'";
  }
  EXPECT_THROW(GzTable(degenerate, 64), AssertionError);
  // A valid key still builds after the failure.
  const GzParams valid{50.0, 29.0};
  expect_bit_identical(GzTable(valid, 64), fresh_table(valid, 64));
}

TEST(GzTable, OmegaIsCheckedBeforeAnythingIsSampled) {
  // With sigma = 0 every sample throws, so the omega error can only win
  // if the bound is checked first.
  try {
    const GzTable table(GzParams{50.0, 0.0}, kMinGzOmega - 1);
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("omega must be >= 8, got 7"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace lad
