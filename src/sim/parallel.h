// Parallel-for over independent simulation work items.
//
// Runs on the process-wide shared ThreadPool (grown on demand, reused
// across calls, caller participates; iterations are handed out one at a
// time because network generation and MLE search vary in cost per item).
// Work items must be independent (CP.2): callers write results into
// pre-sized slots indexed by the item id, so no synchronization is needed,
// and determinism comes from per-item RNG streams, never from scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace lad {

/// Runs fn(i) for i in [0, n) in parallel; blocks until done.
/// Set max_threads = 1 to force serial execution (tests use this to verify
/// scheduling-independence of results); 0 means default_parallelism().
/// Negative counts are a named error (lad::AssertionError), never a
/// silent "use all cores".
void parallel_for_items(std::size_t n, const std::function<void(std::size_t)>& fn,
                        int max_threads = 0);

/// Number of workers parallel_for_items would use by default: the
/// LAD_THREADS environment pin when set (an integer in [1, 4096]; any
/// other value present is a named error — the benchmark and CI rely on the
/// pin for reproducible thread counts), otherwise the hardware count.
int default_parallelism();

}  // namespace lad
