// ladbench: the repository benchmark program.
//
//   ladbench --workload figures|correction|online_check --seed N
//            --seconds S --trace 0|1 [--small 1] [--refs FILE]
//            [--digests-out FILE] [--scenarios DIR] [--out DIR]
//            [--threads T] [--git-rev REV]
//
// --trace 0 repeats untraced passes at threads = 1 for S seconds, with
// set-ups before and between them (setup_s is the fastest), and reports
// each time as a pass with every work item at its fastest over the passes
// (see pass_estimate()).  --trace 1 repeats
// (untraced pass at t1, traced replay at t1) for S seconds and reports
// the per-layer metrics.  Either way every pass is checked against the
// reference digests for this seed when the reference file has them, and
// against the run's first pass otherwise; the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deploy/observe_kernel.h"
#include "stats/quantile.h"
#include "workloads.h"

namespace ladbench {
namespace {

/// Set-ups before the first pass; an untraced run adds more between its
/// passes (kSetupShare).
constexpr int kSetupReps = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : lad::quantile(std::move(v), 0.5);
}

/// The best of several timings: interference from other tenants only
/// ever adds time, and on shared hosts it comes and goes for seconds at a
/// time, so the fastest of many short passes is the steadiest estimate.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string model = line.substr(colon + 1);
      model.erase(0, model.find_first_not_of(' '));
      return model;
    }
  }
  return "unknown";
}

/// Reference digests: "<workload> <size> <seed> <hex>,<hex>,..." per line.
using RefKey = std::string;
std::map<RefKey, std::vector<std::uint32_t>> load_refs(const std::string& path) {
  std::map<RefKey, std::vector<std::uint32_t>> refs;
  if (path.empty()) return refs;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read reference file " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, size, seed, list;
    ls >> workload >> size >> seed >> list;
    std::vector<std::uint32_t> digests;
    std::istringstream items(list);
    std::string hex;
    while (std::getline(items, hex, ',')) {
      digests.push_back(static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16)));
    }
    refs[workload + " " + size + " " + seed] = std::move(digests);
  }
  return refs;
}

/// Long digest lists (one per claim) are kept as one stream digest.
constexpr std::size_t kMaxListedDigests = 256;

std::vector<std::uint32_t> stored_form(const std::vector<std::uint32_t>& d) {
  if (d.size() <= kMaxListedDigests) return d;
  return {fold32(fnv1a(d.data(), d.size() * sizeof(std::uint32_t)))};
}

/// Units of `pass` that disagree with `ref` (a per-unit list, or the
/// stream digest of a long list, where any difference fails one unit).
long long count_failed(const std::vector<std::uint32_t>& got,
                       const std::vector<std::uint32_t>& ref) {
  const std::vector<std::uint32_t> stored = stored_form(got);
  if (stored.size() != ref.size()) return static_cast<long long>(got.size());
  long long failed = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) failed += stored[i] != ref[i];
  return failed;
}

std::string hex_list(const std::vector<std::uint32_t>& d) {
  std::string out;
  char buf[16];
  for (std::uint32_t v : d) {
    std::snprintf(buf, sizeof buf, "%s%08x", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

struct Args {
  Options opts;
  std::string git_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    const std::string val = argv[++i];
    if (key == "--workload") a.opts.workload = val;
    else if (key == "--seed") a.opts.seed = std::stoull(val);
    else if (key == "--seconds") a.opts.seconds = std::stod(val);
    else if (key == "--trace") a.opts.trace = std::stoi(val) != 0;
    else if (key == "--small") a.opts.small = std::stoi(val) != 0;
    else if (key == "--threads") a.opts.threads = std::stoi(val);
    else if (key == "--scenarios") a.opts.scenarios = val;
    else if (key == "--out") a.opts.out = val;
    else if (key == "--refs") a.opts.refs = val;
    else if (key == "--digests-out") a.opts.digests_out = val;
    else if (key == "--git-rev") a.git_rev = val;
    else throw std::invalid_argument("unknown flag " + key);
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.opts.workload) == names.end()) {
    throw std::invalid_argument("--workload must be one of figures, "
                                "correction, online_check");
  }
  if (!(a.opts.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.opts.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return a;
}

/// Checks passes against the reference for this seed, or the first pass.
class Checker {
 public:
  Checker(const Options& opts, const Workload& w)
      : w_(w), key_(opts.workload + " " + (opts.small ? "small" : "full") +
                    " " + std::to_string(opts.seed)) {
    const auto refs = load_refs(opts.refs);
    const auto it = refs.find(key_);
    if (it != refs.end()) {
      ref_ = it->second;
      have_ref_ = true;
    }
  }

  void check(const Pass& pass) {
    attempted_ += static_cast<long long>(pass.digests.size());
    if (!have_ref_ && first_.empty()) first_ = stored_form(pass.digests);
    long long failed = count_failed(pass.digests, have_ref_ ? ref_ : first_);
    failed = std::max(failed, w_.oracle_failures(pass));
    failed_ += failed;
  }

  void fail(long long units) { failed_ += units; }

  bool have_ref() const { return have_ref_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::string& key() const { return key_; }

 private:
  const Workload& w_;
  std::string key_;
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint32_t> first_;
  bool have_ref_ = false;
  long long attempted_ = 0;
  long long failed_ = 0;
};

double latency_q(const Pass& p, double q) {
  return p.latency_us.empty() ? 0.0 : lad::quantile(p.latency_us, q);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Element-wise minimum of equally long per-unit timings over the passes.
class UnitMin {
 public:
  void add(const std::vector<double>& v) {
    if (min_.empty()) min_ = v;
    if (v.size() != min_.size()) {
      throw std::logic_error("passes differ in their number of timed units");
    }
    for (std::size_t i = 0; i < v.size(); ++i) min_[i] = std::min(min_[i], v[i]);
  }
  const std::vector<double>& values() const { return min_; }

 private:
  std::vector<double> min_;
};

/// A pass's time with interference taken out unit by unit: every timed
/// unit (work item or claim block) at its fastest over the run's passes,
/// plus the fastest remainder of a pass outside the units.  Interference
/// from other tenants comes and goes within seconds, so each unit of a
/// second or less is fast in some pass, while a whole pass rarely is.
double pass_estimate(const UnitMin& units, const std::vector<double>& rest) {
  return sum(units.values()) + std::max(0.0, best(rest));
}

/// Moves the process from CPU to CPU between passes.  Another tenant
/// slows one CPU at a time, and the scheduler rarely moves a busy thread
/// off a slowed CPU, so without this a run can spend most of its passes on
/// one.  Pass k runs every thread on `width` CPUs starting at the k-th of
/// those the process was started with.
class CpuRotation {
 public:
  explicit CpuRotation(int width) {
    cpu_set_t start;
    if (sched_getaffinity(0, sizeof start, &start) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &start)) cpus_.push_back(c);
    }
    width_ = static_cast<std::size_t>(width);
  }

  void next() {
    if (cpus_.size() <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < width_; ++j) {
      CPU_SET(cpus_[(round_ + j) % cpus_.size()], &set);
    }
    ++round_;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      const pid_t tid = std::stoi(task.path().filename().string());
      sched_setaffinity(tid, sizeof set, &set);  // fails only for an exited thread
    }
  }

 private:
  std::vector<int> cpus_;
  std::size_t width_ = 0;
  std::size_t round_ = 0;
};

/// Seconds one call of the workload's set-up takes.
double timed_setup(Workload& w) {
  const std::int64_t t0 = now_ns();
  w.setup();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Share of an untraced run spent on further set-ups between the passes,
/// so that set-up is timed across the whole run, as the passes are.
constexpr double kSetupShare = 0.1;

std::vector<Metric> untraced(const Options& opts, Workload& w, Checker& checker,
                             std::vector<double>& setups, int& passes) {
  UnitMin unit_wall, unit_cpu, latency;
  std::vector<double> rest_wall, rest_cpu;
  CpuRotation cpus(opts.threads);
  long long ops = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opts.seconds * 1e9);
  do {
    cpus.next();
    const Pass pass = w.run_pass(opts.threads);
    checker.check(pass);
    if (passes == 0 && !opts.digests_out.empty()) {
      std::ofstream os(opts.digests_out, std::ios::app);
      os << checker.key() << " " << hex_list(stored_form(pass.digests)) << "\n";
    }
    unit_wall.add(pass.unit_wall_s);
    unit_cpu.add(pass.unit_cpu_s);
    latency.add(pass.latency_us);
    rest_wall.push_back(pass.wall_s - sum(pass.unit_wall_s));
    rest_cpu.push_back(pass.cpu_s - sum(pass.unit_cpu_s));
    ops = pass.ops;
    ++passes;
    while (!opts.small &&
           sum(setups) < kSetupShare * static_cast<double>(now_ns() - start) * 1e-9) {
      setups.push_back(timed_setup(w));
    }
  } while (now_ns() < deadline);

  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const double wall_s = pass_estimate(unit_wall, rest_wall);
  return {{"wall_s", wall_s, "s"},
          {"cpu_s", pass_estimate(unit_cpu, rest_cpu), "s"},
          {"setup_s", best(setups), "s"},
          {"ops_per_s", static_cast<double>(ops) / wall_s, "1/s"},
          {"latency_us_p50", median(latency.values()), "us"},
          {"peak_rss_mb", static_cast<double>(u.ru_maxrss) / 1024.0, "MB"}};
}

std::vector<Metric> traced(const Options& opts, Workload& w, Checker& checker,
                           int& passes) {
  Tracer tracer;
  std::vector<double> overhead, coverage;
  Pass last;
  long long replay_ops = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  do {
    tracer.next_run();
    const std::size_t first_span = tracer.spans().size();
    last = w.run_pass(1);
    checker.check(last);
    replay_ops = w.replay(tracer, last);
    if (replay_ops != last.ops) {
      std::cerr << "ladbench: replay scored " << replay_ops
                << " operations, the untraced pass " << last.ops << "\n";
      checker.fail(1);
    }
    // Coverage: self time of every span under this run's "workload" root,
    // the root and the shadow searches excluded, over the untraced pass.
    const auto& spans = tracer.spans();
    const int root_name = tracer.id("workload");
    const int shadow_name = tracer.id("trace.shadow");
    std::vector<double> child(spans.size() - first_span, 0.0);
    std::vector<int> top(spans.size() - first_span, -1);
    double root_ns = 0.0, shadow_ns = 0.0, self_ns = 0.0;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::size_t li = i - first_span;
      top[li] = s.parent < 0 ? static_cast<int>(i)
                             : top[static_cast<std::size_t>(s.parent) - first_span];
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent) - first_span] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::size_t li = i - first_span;
      if (spans[static_cast<std::size_t>(top[li])].name != root_name) continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent < 0) {
        root_ns += dur;
      } else if (s.name == shadow_name) {
        shadow_ns += dur;
      } else {
        self_ns += dur - child[li];
      }
    }
    const double real_ns = last.wall_s * 1e9;
    overhead.push_back((root_ns - shadow_ns - real_ns) / real_ns);
    coverage.push_back(self_ns / real_ns);
    ++passes;
  } while (now_ns() < deadline);
  // Call counts are per replay, so they exclude the probes.
  const std::map<std::string, LayerStat> replayed = tracer.summarize();
  tracer.next_run();
  w.probe(tracer);
  tracer.write_jsonl(opts.out + "/" + opts.workload + ".trace.jsonl");

  const double runs = static_cast<double>(passes);
  const std::map<std::string, LayerStat> stats = tracer.summarize();
  std::cerr << "per-layer self time (" << passes << " replays; * = probe)\n";
  for (const auto& [name, stat] : stats) {
    std::fprintf(stderr, "  %-28s %10lld calls %12.3f ms self %12.3f ms total%s\n",
                 name.c_str(), stat.calls, stat.self_ns * 1e-6,
                 stat.total_ns * 1e-6,
                 tracer.count("probe." + name) > 0 ? " *" : "");
  }
  const auto span_mean = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() || it->second.calls == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.calls);
  };
  const auto span_calls = [&](const std::string& name) {
    const auto it = replayed.find(name);
    return it == replayed.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const auto timed_mean = [&](const std::string& name) {
    const auto it = tracer.timed().find(name);
    return it == tracer.timed().end() || it->second.first == 0
               ? 0.0
               : it->second.second / static_cast<double>(it->second.first);
  };
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  double probed = 0.0;
  for (const auto& [name, stat] : stats) {
    if (tracer.count("probe." + name) > 0) probed += 1;
  }
  for (const auto& [name, t] : tracer.timed()) {
    if (tracer.count("probe." + name) > 0) probed += 1;
  }
  const auto observe = stats.find("deploy.observe");
  const double observe_ns = observe == stats.end() ? 0.0 : observe->second.total_ns;

  return {
      {"loc.mle_estimate_us", span_mean("loc.mle_estimate") * 1e-3, "us"},
      {"loc.mle_estimates", span_calls("loc.mle_estimate") / runs, "count"},
      {"loc.mle_loglik_ns", timed_mean("loc.mle_loglik"), "ns"},
      {"loc.loglik_per_estimate",
       ratio(tracer.count("loc.shadow_loglik_evals"),
             tracer.count("loc.shadow_estimates")),
       "count"},
      {"stats.log_binomial_ns", timed_mean("stats.log_binomial"), "ns"},
      {"core.correct_ms", span_mean("core.correct") * 1e-6, "ms"},
      {"core.corrections", span_calls("core.correct") / runs, "count"},
      {"core.robust_ll_ns", timed_mean("core.robust_ll"), "ns"},
      {"deploy.expected_obs_us", span_mean("deploy.expected_obs") * 1e-3, "us"},
      {"core.score_ns.diff", span_mean("core.score.diff"), "ns"},
      {"core.score_ns.addall", span_mean("core.score.add-all"), "ns"},
      {"core.score_ns.prob", span_mean("core.score.prob"), "ns"},
      {"core.check_ns", span_mean("core.check"), "ns"},
      {"attack.taint_us", span_mean("attack.taint") * 1e-3, "us"},
      {"attack.budget_used_frac",
       ratio(tracer.count("attack.budget_spent"), tracer.count("attack.budget")),
       "ratio"},
      {"deploy.gz_build_ms", span_mean("deploy.gz_build") * 1e-6, "ms"},
      {"deploy.network_build_ms", span_mean("deploy.network_build") * 1e-6, "ms"},
      {"deploy.observe_ns_per_obs",
       ratio(observe_ns, tracer.count("deploy.observations")), "ns"},
      {"deploy.observations", tracer.count("deploy.observations") / runs, "count"},
      {"sim.pipeline_build_ms", span_mean("sim.pipeline_build") * 1e-6, "ms"},
      {"sim.benign_us_per_victim.t1", timed_mean("sim.benign_pass.t1") * 1e-3, "us"},
      {"sim.benign_us_per_victim.t4", timed_mean("sim.benign_pass.t4") * 1e-3, "us"},
      {"sim.attack_us_per_victim.t1", timed_mean("sim.attack_pass.t1") * 1e-3, "us"},
      {"sim.attack_us_per_victim.t4", timed_mean("sim.attack_pass.t4") * 1e-3, "us"},
      {"sim.fanout_speedup",
       ratio(timed_mean("sim.benign_pass.t1"), timed_mean("sim.benign_pass.t4")),
       "ratio"},
      {"sim.item_ms_p50", latency_q(last, 0.5) * 1e-3, "ms"},
      {"sim.item_ms_p90", latency_q(last, 0.9) * 1e-3, "ms"},
      {"sim.csv_write_ms", span_mean("sim.csv_write") * 1e-6, "ms"},
      {"core.train_ms", span_mean("core.train") * 1e-6, "ms"},
      {"core.bundle_save_ms", span_mean("core.bundle_save") * 1e-6, "ms"},
      {"core.bundle_load_ms", span_mean("core.bundle_load") * 1e-6, "ms"},
      {"stats.roc_ms", span_mean("stats.roc") * 1e-6, "ms"},
      {"trace.overhead_frac", median(overhead), "ratio"},
      {"trace.coverage", median(coverage), "ratio"},
      {"trace.ops", static_cast<double>(replay_ops), "count"},
      {"trace.probed_layers", probed, "count"},
      {"trace.shadow_mismatches",
       tracer.count("loc.shadow_mismatch") + tracer.count("core.check_mismatch"),
       "count"},
  };
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Options& opts = args.opts;
  std::unique_ptr<Workload> w = make_workload(opts);

  std::vector<double> setups;
  const int reps = opts.small ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) setups.push_back(timed_setup(*w));
  w->make_inputs();

  Checker checker(opts, *w);
  if (!checker.have_ref()) {
    std::cerr << "ladbench: no reference digests for '" << checker.key()
              << "'; checking every pass against the first\n";
  }
  int passes = 0;
  const std::vector<Metric> metrics =
      opts.trace ? traced(opts, *w, checker, passes)
                 : untraced(opts, *w, checker, setups, passes);

  std::cout << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << cpu_model() << "\", \"git_rev\": \""
            << args.git_rev << "\", \"observe_kernel\": \""
            << lad::observe_kernel_name() << "\"}, \"workload\": \""
            << opts.workload << "\", \"seed\": " << opts.seed
            << ", \"threads\": " << (opts.trace ? 1 : opts.threads)
            << ", \"jobs\": 1, \"passes\": " << passes
            << ", \"ops_per_pass\": " << w->expected_ops()
            << ", \"setup_reps\": " << setups.size()
            << ", \"reference\": " << (checker.have_ref() ? "true" : "false")
            << "}\n";
  std::cout << "{\"correct\": " << (checker.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace ladbench

int main(int argc, char** argv) {
  try {
    return ladbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ladbench: " << e.what() << "\n";
    return 2;
  }
}
