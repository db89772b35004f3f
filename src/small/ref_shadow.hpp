// The EP reference shadow: how many references the Evaluation
// Processor's stack holds on each table entry.
//
// Both List Processors keep one — ListProcessor (where in split-count
// mode it *is* the EP-side count of §5.2.4) and SmallMachine — to decide
// compressibility (an entry the EP holds cannot be merged away) and as
// the cycle-recovery root set. Dense layout, indexed by entry id (tables
// never grow): a lookup is a single load, and the separately maintained
// non-zero id set makes root collection O(live roots) and deterministic
// instead of a hash-table walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace small::core {

class RefShadow {
 public:
  explicit RefShadow(std::uint32_t size)
      : counts_(size, 0), pos_(size, kAbsent) {}

  /// EP references held on `id` (0 for an id outside the table).
  std::uint32_t count(std::uint32_t id) const {
    return id < counts_.size() ? counts_[id] : 0;
  }

  /// One more EP reference on `id`; returns the new count.
  std::uint32_t increment(std::uint32_t id) {
    if (id >= counts_.size()) {
      throw support::SimulationError("RefShadow: EP reference to bad id");
    }
    if (counts_[id] == 0) {
      pos_[id] = static_cast<std::uint32_t>(nonZero_.size());
      nonZero_.push_back(id);
    }
    return ++counts_[id];
  }

  /// One EP reference on `id` dropped; returns the new count. Dropping a
  /// reference the EP does not hold is a protocol error.
  std::uint32_t decrement(std::uint32_t id) {
    if (id >= counts_.size() || counts_[id] == 0) {
      throw support::SimulationError("RefShadow: EP reference underflow");
    }
    if (--counts_[id] == 0) {
      // Swap-remove from the non-zero set; O(1) either way.
      const std::uint32_t pos = pos_[id];
      const std::uint32_t last = nonZero_.back();
      nonZero_[pos] = last;
      pos_[last] = pos;
      nonZero_.pop_back();
      pos_[id] = kAbsent;
    }
    return counts_[id];
  }

  /// Every id the EP holds a reference on, in ascending order: the mark
  /// set seeded from it is order-independent, but a canonical order keeps
  /// any order-sensitive stat downstream independent of update history.
  std::vector<std::uint32_t> sortedIds() const {
    std::vector<std::uint32_t> ids(nonZero_.begin(), nonZero_.end());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  std::vector<std::uint32_t> counts_;   ///< count per id
  std::vector<std::uint32_t> nonZero_;  ///< ids with count > 0 (unordered)
  std::vector<std::uint32_t> pos_;      ///< id -> index in nonZero_
};

}  // namespace small::core
