// The original node-based §5.2.5 comparison cache, retained verbatim as
// the executable specification of LRU line-cache semantics.
//
// `cache::LruCache` (lru_cache.hpp) is the production implementation — a
// flat, allocation-free layout. This class keeps the obviously-correct
// `std::list` + iterator-map form so that the randomized differential
// test (tests/cache_test.cpp) can assert the flat cache agrees with it
// access by access. It is not used on any simulation hot path.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "support/error.hpp"

namespace small::cache {

class ReferenceLruCache {
 public:
  /// `entryCount` lines of `lineSize` cells each (addresses are in cells).
  explicit ReferenceLruCache(std::uint64_t entryCount,
                             std::uint32_t lineSize = 1)
      : entryCount_(entryCount), lineSize_(lineSize) {
    if (entryCount == 0) throw support::Error("ReferenceLruCache: zero entries");
    if (lineSize == 0) throw support::Error("ReferenceLruCache: zero line size");
  }

  /// Access the cell at `address`. Returns true on hit. Misses fill the
  /// containing line, evicting the LRU line if full.
  bool access(std::uint64_t address) {
    const std::uint64_t line = address / lineSize_;
    const auto it = map_.find(line);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    ++misses_;
    if (map_.size() >= entryCount_) {
      const std::uint64_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);
    }
    lru_.push_front(line);
    map_[line] = lru_.begin();
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  double hitRate() const {
    const std::uint64_t n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(n);
  }

  std::uint64_t entryCount() const { return entryCount_; }
  std::uint32_t lineSize() const { return lineSize_; }
  std::uint64_t residentLines() const { return map_.size(); }

  void reset() {
    lru_.clear();
    map_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  std::uint64_t entryCount_;
  std::uint32_t lineSize_;

  // Most-recent at front. Values in map_ point into lru_.
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace small::cache
