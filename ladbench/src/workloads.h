// The benchmark's three workloads and the pieces the untraced passes and
// the traced replay share.
//
//  figures       the six paper-figure specs (fig04..fig09) through
//                ScenarioRunner, threads = 1, jobs = 1
//  correction    tab_correction through ScenarioRunner, threads = 1, jobs = 1
//  online_check  a trained Diff + Add-All + Prob fusion bundle checking a
//                fixed stream of benign and Dec-Bounded claims, one thread
//
// Every input derives from the --seed argument: the scenario specs run at
// spec seed kSeedBase + seed, and the claim stream is drawn from streams
// keyed by the same value.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "trace.h"

namespace ladbench {

/// Seed 0 reproduces the checked-in specs' own seed.
constexpr std::uint64_t kSeedBase = 20050404;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< reduced sizes (the benchmark's own tests)
  /// Pipeline threads of the untraced passes.  One: on the shared 4-core
  /// host the benchmark was sized on, a work item fanned out over several
  /// cores waits for the slowest of them, and the passes spread over
  /// seeds twice as much at 2 threads and four times as much at 4.  The
  /// traced run measures the fan-out at 1 and 4 threads.
  int threads = 1;
  std::string scenarios = "bench/scenarios";
  std::string out = ".bench_out";
  std::string refs;         ///< reference digest file ("" = none)
  std::string digests_out;  ///< write the first pass's digests here
};

/// One untraced pass over a workload.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Wall and CPU seconds of each timed unit (a work item, or a block of
  /// kClaimBlock claims), in the same order in every pass.  The units are
  /// disjoint parts of the pass; the rest is the pass's own overhead.
  std::vector<double> unit_wall_s;
  std::vector<double> unit_cpu_s;
  std::vector<double> latency_us;  ///< per work item, or per claim
  /// One digest per unit a failure is counted in: a scenario work item
  /// (its CSV rows) or a claim (its verdict and score).
  std::vector<std::uint32_t> digests;
  long long ops = 0;  ///< scored samples / corrected trials / claim checks
  /// The scenario results of the pass, for the replay's CSV write.
  std::vector<lad::ScenarioResult> results;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Work done once before the first timed operation (spec parse and
  /// base Pipeline construction; or train, save, load and materialize).
  virtual void setup() = 0;
  /// Generates the pass inputs after set-up (not timed).
  virtual void make_inputs() {}
  /// One untraced pass at `threads` pipeline threads.
  virtual Pass run_pass(int threads) = 0;
  /// Units of `pass` whose output disagrees with an independent
  /// recomputation (claims only; scenario items have none).
  virtual long long oracle_failures(const Pass& /*pass*/) const { return 0; }
  /// Exact operation count of one pass, derived from the inputs alone.
  virtual long long expected_ops() const = 0;
  /// The traced replay at t1 under tracer; returns the operations it
  /// scored.  `t1_pass` is the untraced t1 pass of the same iteration.
  virtual long long replay(Tracer& tracer, const Pass& t1_pass) = 0;
  /// Runs the probes for layers the replay did not reach.
  virtual void probe(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opts);
std::unique_ptr<Workload> make_figures(const Options& opts);
std::unique_ptr<Workload> make_correction(const Options& opts);
std::unique_ptr<Workload> make_online(const Options& opts);

/// Loads `<scenarios>/<name>.scn` at the benchmark's seed, `threads` and
/// jobs = 1.
lad::ScenarioSpec load_spec(const Options& opts, const std::string& name,
                            int threads);

/// Runs `spec` as one-item shards on one runner, so each work item's
/// latency is measured on its own (with jobs = 1 the runner executes the
/// same items in the same order either way; its caches persist across
/// the calls).  Writes the merged CSVs into `dir` and appends the result,
/// the item latencies and one digest per item (of its CSV rows as
/// written) to `pass`.
void run_scenario(const lad::ScenarioSpec& spec, const std::string& dir,
                  Pass& pass);

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// FNV-1a over bytes, folded to 32 bits for the reference tables.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);
std::uint32_t fold32(std::uint64_t h);

/// CPU seconds of this process so far, all threads.
double process_cpu_s();

/// online_check times its claims in blocks of this many.
constexpr std::size_t kClaimBlock = 50;

}  // namespace ladbench
