// ban-clock-now fixture: bench/ holds only specs, so a clock read there fires.
#include <chrono>
double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
