// The metric registry: named counters, maxima, gauges and histograms with
// a deterministic merge — the single vocabulary every subsystem reports
// through (Tables 5.2-5.5 are all counter-driven).
//
// Four metric families, chosen so that merging per-task registries from
// the parallel sweep harness is associative and commutative:
//   * counter   — monotone uint64, merged by addition (refops, gets, ...);
//   * max       — uint64 high-water mark, merged by max (peak occupancy,
//                 max refcount, max pause);
//   * gauge     — double, merged by addition (cost totals that are
//                 naturally fractional);
//   * histogram — support::Histogram, merged by bucket-wise addition
//                 (pause distributions, lifetime max counts).
// Merge order therefore cannot change any value, so a sweep's merged
// registry — and the `--metrics-out` bytes derived from it — is identical
// at every `--jobs` count.
//
// Handles are stable pointers into node-based maps: after
// `Counter c = registry.counter("lpt.ref_ops")`, `c.add(1)` is a plain
// 64-bit increment with no lookup — cheap enough for hot paths.
// Registries are not internally synchronized; the sweep discipline is one
// registry per task id (obs::ShardSet), merged serially in id order
// afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "support/stats.hpp"

namespace small::obs {

class Registry;

/// Monotone counter handle (sum-merged). Plain increment, no lookup.
/// A default-constructed (unbound) handle is a no-op on every operation,
/// like the null TraceSink fast path — instrumented code may hold handles
/// unconditionally and only bind them when obs is enabled.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) {
    if (slot_ != nullptr) *slot_ += n;
  }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// High-water-mark handle (max-merged). Unbound handles no-op.
class Max {
 public:
  Max() = default;
  void record(std::uint64_t v) {
    if (slot_ != nullptr && v > *slot_) *slot_ = v;
  }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }

 private:
  friend class Registry;
  explicit Max(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Additive double handle (sum-merged). Unbound handles no-op.
class Gauge {
 public:
  Gauge() = default;
  void add(double v) {
    if (slot_ != nullptr) *slot_ += v;
  }
  double value() const { return slot_ != nullptr ? *slot_ : 0.0; }

 private:
  friend class Registry;
  explicit Gauge(double* slot) : slot_(slot) {}
  double* slot_ = nullptr;
};

class Registry {
 public:
  /// Handle accessors create the metric on first use (zero-initialized).
  Counter counter(const std::string& name);
  Max max(const std::string& name);
  Gauge gauge(const std::string& name);
  support::Histogram& histogram(const std::string& name);

  /// Shorthand for one-shot contributions (lookup per call).
  void add(const std::string& name, std::uint64_t n) { counter(name).add(n); }
  void recordMax(const std::string& name, std::uint64_t v) {
    max(name).record(v);
  }

  /// Read accessors: 0 / empty when the metric does not exist.
  std::uint64_t counterValue(const std::string& name) const;
  std::uint64_t maxValue(const std::string& name) const;
  double gaugeValue(const std::string& name) const;
  const support::Histogram* findHistogram(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && maxima_.empty() && gauges_.empty() &&
           histograms_.empty();
  }

  /// Fold `other` into this registry (sum / max / sum / bucket-add).
  /// Associative and commutative; see header comment.
  void merge(const Registry& other);

  /// One JSON object per metric, one per line, sorted by metric family
  /// then name (the maps iterate sorted). Ends with a newline iff any
  /// metric exists. Format (versioned via the bench_report header line
  /// the callers prepend):
  ///   {"type":"counter","name":...,"value":N}
  ///   {"type":"max","name":...,"value":N}
  ///   {"type":"gauge","name":...,"value":X}
  ///   {"type":"histogram","name":...,"total":N,"buckets":[[v,c],...]}
  std::string exportJsonLines() const;

 private:
  // node-based maps: handle pointers stay valid across inserts.
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> maxima_;
  std::map<std::string, double> gauges_;
  std::map<std::string, support::Histogram> histograms_;
};

}  // namespace small::obs
