// Wall-clock stopwatch for timing instrumentation.
#pragma once

#include <chrono>

namespace lad {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  // lad-lint: allow(ban-clock-now) -- Timer is instrumentation
  // only; wall-clock readings never feed simulation output.
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lad
