#include "sim/parallel.h"

#include <thread>

#include "util/assert.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace lad {

namespace {

// Upper bound on any configured thread count: generous for real machines,
// small enough to catch garbage like LAD_THREADS=1e9 before it tries to
// spawn that many workers.
constexpr long kMaxThreads = 4096;

// The LAD_THREADS pin, or -1 when the variable is unset/empty.  Anything
// present but not an integer in [1, kMaxThreads] is a named error (from
// env_int): a mistyped pin silently falling back to all cores would
// defeat the reproducibility the override exists for.
int env_thread_override() {
  return static_cast<int>(env_int("LAD_THREADS", -1, 1, kMaxThreads));
}

}  // namespace

int default_parallelism() {
  const int pinned = env_thread_override();
  if (pinned > 0) return pinned;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for_items(std::size_t n,
                        const std::function<void(std::size_t)>& fn,
                        int max_threads) {
  // A negative count used to be silently treated as "use all cores" —
  // exactly what a caller computing threads from a subtraction would
  // least expect.  Reject it by name instead.
  LAD_REQUIRE_MSG(max_threads >= 0,
                  "parallel_for_items: max_threads must be >= 0 "
                  "(0 = default parallelism), got "
                      << max_threads);
  if (n == 0) return;
  const int threads = max_threads > 0 ? max_threads : default_parallelism();
  if (threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One process-wide pool, grown on demand and reused across calls: a
  // scenario sweep issues thousands of these loops, and spawning/joining
  // a fresh pool per call dominated the small passes.  The caller
  // participates in the loop, so `threads`-wide execution needs only
  // threads-1 pool workers, and nested loops (scenario jobs running
  // pipeline passes) cannot deadlock.
  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_workers(static_cast<std::size_t>(threads) - 1);
  pool.parallel_for(0, n, fn, static_cast<std::size_t>(threads));
}

}  // namespace lad
