// The trace-driven SMALL simulator (§5.2.1).
//
// "The simulator monitors the contents of the LPT and the control-cum-
//  binding stack over the function calls and list manipulating primitives
//  of a trace."
//
// The Evaluation Processor is the shared core::EpModel (small/ep_model.hpp):
// a control/binding stack updated on every function enter/exit, with the
// argument of each primitive chosen by the chaining flag or by the
// ArgProb/LocProb probabilities, rebinding with probability ReadProb, and
// result disposition governed by BindProb. The List Processor executes
// each primitive against the LPT; an optional comparison data cache
// observes the same access stream through the conventional-memory address
// shadow.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/lru_cache.hpp"
#include "obs/snapshot.hpp"
#include "small/config.hpp"
#include "small/ep_model.hpp"
#include "small/list_processor.hpp"
#include "support/stats.hpp"
#include "trace/preprocess.hpp"

namespace small::core {

/// Everything the Chapter 5 tables and figures need from one run.
struct SimResult {
  LptStats lptStats;
  LpStats lpStats;

  /// Per-entry lifetime maximum counts at free time (the §2.3.4 M3L
  /// truncated-counter study input).
  support::Histogram lifetimeMaxCounts;

  std::uint64_t lptHits = 0;     ///< car/cdr satisfied from table fields
  std::uint64_t lptMisses = 0;   ///< car/cdr requiring a heap split
  double lptHitRate = 0.0;

  std::uint64_t cacheHits = 0;   ///< comparison cache, car/cdr stream only
  std::uint64_t cacheMisses = 0;
  double cacheHitRate = 0.0;

  std::uint32_t peakOccupancy = 0;  ///< max in-use LPT entries
  double averageOccupancy = 0.0;

  bool pseudoOverflowOccurred = false;
  bool trueOverflowOccurred = false;

  std::uint64_t primitivesSimulated = 0;
  std::uint64_t functionCalls = 0;
};

class Simulator {
 public:
  Simulator(const SimConfig& config, const trace::PreprocessedTrace& trace);

  /// Record an `lpt.occupancy` telemetry series into `buffer` every
  /// `every` primitives (epoch = primitives simulated — deterministic).
  /// Call before run(); a null/disabled buffer keeps the run untouched.
  void attachTelemetry(obs::TelemetryBuffer* buffer, std::uint64_t every);

  SimResult run();

 private:
  /// A stack value as the statistical LP sees it: an atom, an LPT entry,
  /// or a "large" bypass-mode address (§4.3.2.3).
  struct EpValue {
    enum class Kind : std::uint8_t { kAtom, kEntry, kLarge };
    Kind kind = Kind::kAtom;
    EntryId id = kNoEntry;

    /// What a readList result denotes: its entry, or a large address
    /// when it returned kNoEntry (bypass mode).
    static EpValue list(EntryId id) {
      return {id == kNoEntry ? Kind::kLarge : Kind::kEntry, id};
    }
  };

  /// The EpModel adapter: EP reference messages to the ListProcessor.
  struct LpOps {
    using Value = EpValue;
    ListProcessor& lp;

    static bool isList(const EpValue& value) {
      return value.kind != EpValue::Kind::kAtom;
    }
    void retain(const EpValue& value);
    void release(const EpValue& value);
    EpValue readIn(std::uint32_t n, std::uint32_t p);
    void reread(EpValue& value, std::uint32_t n, std::uint32_t p);
  };

  void onPrimitive(const trace::PreprocessedEvent& event);
  void pushResult(const AccessResult& result);
  void touchCache(const EpValue& value, bool countIt);
  void sampleOccupancy();
#ifdef SMALL_SIM_VERIFY
  void verifyStackRefs(const char* where);
  void verifyRefCounts(const trace::PreprocessedEvent& event);
#endif

  SimConfig config_;
  const trace::PreprocessedTrace& trace_;
  support::Rng rng_;
  ListProcessor lp_;
  std::unique_ptr<cache::LruCache> cache_;
  EpModel<LpOps> ep_;

  std::uint64_t cacheHits_ = 0;
  std::uint64_t cacheMisses_ = 0;
  std::uint32_t peakOccupancy_ = 0;
  support::RunningStats occupancy_;
  std::uint64_t primitives_ = 0;
  std::uint64_t functionCalls_ = 0;
  std::unique_ptr<obs::Snapshotter> telemetrySnap_;
};

/// Convenience: preprocess-and-simulate with the given config.
SimResult simulateTrace(const SimConfig& config,
                        const trace::PreprocessedTrace& trace);

/// Same, with an occupancy telemetry series sampled every `every`
/// primitives into `telemetry` (see Simulator::attachTelemetry).
SimResult simulateTrace(const SimConfig& config,
                        const trace::PreprocessedTrace& trace,
                        obs::TelemetryBuffer* telemetry,
                        std::uint64_t every);

}  // namespace small::core
