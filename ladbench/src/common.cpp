#include <time.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "workloads.h"

namespace ladbench {

using namespace lad;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint32_t fold32(std::uint64_t h) {
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"figures", "correction",
                                                  "online_check"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "figures") return make_figures(opts);
  if (opts.workload == "correction") return make_correction(opts);
  if (opts.workload == "online_check") return make_online(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

ScenarioSpec load_spec(const Options& opts, const std::string& name,
                       int threads) {
  ScenarioOverrides o;
  o.seed = kSeedBase + opts.seed;
  o.threads = threads;
  o.jobs = 1;
  return apply_overrides(ScenarioSpec::load(opts.scenarios + "/" + name + ".scn"),
                         o);
}

void run_scenario(const ScenarioSpec& spec, const std::string& dir,
                  Pass& pass) {
  ScenarioRunner runner(spec);
  const long long n = runner.num_items();
  ScenarioResult merged;
  for (long long i = 0; i < n; ++i) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    ScenarioResult part = runner.run(ShardRange{static_cast<int>(i),
                                                static_cast<int>(n)});
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    pass.unit_cpu_s.push_back(process_cpu_s() - cpu0);
    pass.unit_wall_s.push_back(wall);
    pass.latency_us.push_back(wall * 1e6);
    if (i == 0) {
      merged.scenario = part.scenario;
      for (const ResultTable& t : part.tables) {
        merged.tables.push_back({t.id, Table(t.table.columns()), {}});
      }
    }
    for (std::size_t ti = 0; ti < part.tables.size(); ++ti) {
      const ResultTable& from = part.tables[ti];
      ResultTable& to = merged.tables[ti];
      for (std::size_t r = 0; r < from.table.num_rows(); ++r) {
        to.table.new_row();
        for (const std::string& cell : from.table.row(r)) to.table.add(cell);
        to.row_items.push_back(from.row_items[r]);
      }
    }
  }
  write_result_csvs(merged, dir);

  // One digest per work item over its rows, as written, in table order.
  std::vector<std::uint64_t> item_hash(static_cast<std::size_t>(n),
                                       1469598103934665603ull);
  for (const ResultTable& t : merged.tables) {
    const std::string path = dir + "/" + merged.scenario + "." + t.id + ".csv";
    std::ifstream is(path);
    if (!is) throw std::runtime_error("missing output " + path);
    std::string line;
    std::getline(is, line);  // header
    while (std::getline(is, line)) {
      const long long item = std::stoll(line.substr(0, line.find(',')));
      if (item < 0 || item >= n) {
        throw std::runtime_error("bad item tag in " + path + ": " + line);
      }
      std::uint64_t& h = item_hash[static_cast<std::size_t>(item)];
      h = fnv1a(t.id.data(), t.id.size(), h);
      h = fnv1a(line.data(), line.size(), h);
    }
  }
  for (std::uint64_t h : item_hash) pass.digests.push_back(fold32(h));
  pass.results.push_back(std::move(merged));
}

}  // namespace ladbench
