// ban-clock-now fixture: std::chrono clocks belong in tools/ only.
#include <chrono>
double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
