#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace raidsim::svc {

/// Thread-safe LRU cache of simulation results, keyed by the full
/// canonical job key (core/job_key.hpp). The full string -- not its
/// hash -- is the identity, so two distinct configs can never alias to
/// each other's metrics no matter what the hash does. Values are the
/// exact Metrics::to_json bytes of the fresh run; a hit is served
/// byte-identically.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns true and copies the cached metrics bytes on a hit.
  bool lookup(const std::string& key, std::string* metrics_json);

  /// Insert (or refresh) an entry, evicting the least-recently-used
  /// entries above capacity.
  void insert(const std::string& key, const std::string& metrics_json);

  std::size_t size() const;
  /// Entries dropped at capacity (the supervisor counts hits and misses).
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::string key;
    std::string metrics_json;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t evictions_ = 0;
};

}  // namespace raidsim::svc
