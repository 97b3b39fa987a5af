// In-memory span recorder for the traced replay.
//
// A span is (name, start, end, parent, run id).  Spans are kept in memory
// and written out once, when the run ends; a layer's self time is its
// span's duration minus the part covered by its child spans.  Calls too
// hot to wrap one by one (a log-likelihood term costs ~100 ns) go through
// add_timed(): a per-name call count and total time, no span.
//
// The recorder is single-threaded: the replay runs every stage at t1.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ladbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  int name = 0;
  int parent = -1;  ///< index into spans(), -1 for a root
  int run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals: spans give self time, add_timed() gives call time.
struct LayerStat {
  long long calls = 0;
  double total_ns = 0.0;  ///< summed span durations
  double self_ns = 0.0;   ///< summed durations minus child coverage
};

class Tracer {
 public:
  /// Opens a span; spans nest in call order.
  class Scope {
   public:
    Scope(Tracer& tracer, int name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  /// Interns a span name; cache the id outside hot loops.
  int id(const std::string& name);

  Scope span(int name) { return Scope(*this, name); }
  Scope span(const std::string& name) { return Scope(*this, id(name)); }

  /// Starts a new run id (one replay of a workload).
  void next_run() { ++run_; }

  /// Aggregated timing of one hot call (no span).
  void add_timed(const std::string& name, double ns, long long calls = 1);
  /// Exact work counters (observations, decrements, ...).
  void add_count(const std::string& name, double value);

  double count(const std::string& name) const;
  const std::map<std::string, std::pair<long long, double>>& timed() const {
    return timed_;
  }

  /// Self time, total time and call count per span name.
  std::map<std::string, LayerStat> summarize() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
  std::map<std::string, std::pair<long long, double>> timed_;
  std::map<std::string, double> counts_;
};

}  // namespace ladbench
