#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace ladbench {

Tracer::Scope::Scope(Tracer& tracer, int name) : tracer_(tracer) {
  Span s;
  s.name = name;
  s.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  s.run = tracer.run_;
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back(s);
  tracer.open_.push_back(index_);
  tracer.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

int Tracer::id(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

void Tracer::add_timed(const std::string& name, double ns, long long calls) {
  auto& slot = timed_[name];
  slot.first += calls;
  slot.second += ns;
}

void Tracer::add_count(const std::string& name, double value) {
  counts_[name] += value;
}

double Tracer::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::map<std::string, LayerStat> Tracer::summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, LayerStat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    LayerStat& stat = out[names_[static_cast<std::size_t>(s.name)]];
    ++stat.calls;
    stat.total_ns += dur;
    stat.self_ns += dur - child_ns[i];
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << names_[static_cast<std::size_t>(s.name)]
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
  }
}

}  // namespace ladbench
