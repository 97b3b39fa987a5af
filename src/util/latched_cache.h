// Thread-safe memo map with per-key in-flight latches: the first caller
// for a key builds the value outside the map lock while later callers for
// the same key block on the entry's latch — so two concurrent callers
// wanting the same value build it exactly once, and callers wanting
// different keys never serialize on each other.  Values must be
// deterministic functions of the key, so which caller ends up building
// changes wall time only, never values.
//
// Exception contract: a builder that throws parks the exception in the
// entry; every caller already waiting on that entry rethrows it.  The
// failed entry is then removed from the map, so the NEXT get() for the
// same key runs the builder again — a transient failure (OOM, I/O) does
// not poison the key for the rest of the run.
#pragma once

#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lad {

template <class V>
class LatchedCache {
 public:
  /// Returns the cached value for `key`, invoking `build` (which must
  /// return std::unique_ptr<V>) on the first call for that key.
  template <class Build>
  V& get(const std::string& key, Build&& build) {
    std::shared_ptr<Entry> entry;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        it = entries_.emplace(key, std::make_shared<Entry>()).first;
        builder = true;
      }
      entry = it->second;
    }
    if (builder) {
      try {
        entry->value = build();
      } catch (...) {
        entry->error = std::current_exception();
      }
      if (entry->error) {
        // Unpublish the failed entry before waking waiters: anyone who
        // already holds the shared_ptr rethrows below, anyone arriving
        // later re-runs the builder fresh.
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == entry) entries_.erase(it);
      }
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->ready = true;
      }
      entry->cv.notify_all();
    } else {
      std::unique_lock<std::mutex> lock(entry->mu);
      entry->cv.wait(lock, [&] { return entry->ready; });
    }
    if (entry->error) std::rethrow_exception(entry->error);
    return *entry->value;
  }

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;  ///< guarded by mu
    std::unique_ptr<V> value;    ///< written by the builder before ready
    std::exception_ptr error;    ///< ditto
  };

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace lad
