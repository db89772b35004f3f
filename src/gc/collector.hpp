// The Collector interface: a cell-level mutator API plus root slots in,
// reclaimed cells and GcStats out, parametric over heap::HeapBackend.
//
// A collector owns a registry of the logical cons cells the mutator has
// allocated through it (the backend has no global enumeration — physical
// layout is each representation's business), a fixed file of root slots
// (the EP's registers in this model), and the collection machinery. All
// heap structure flows through the virtual backend interface, so each
// collector pays the representation's genuine touch profile: a cdr-coded
// sweep pays invisible-pointer hops, a linked-vector trace pays boundary
// indirections, two-pointer pays a pointer chase per edge.
//
// Discipline contract with the mutator:
//   * every pointer word stored into the heap references a cell allocated
//     through cons() (the registry is closed under tracing);
//   * collections happen only at safepoints: the mutator polls
//     shouldCollect() between operations and calls collect() — cons() and
//     the write barriers never collect, so unrooted intermediates are safe
//     while one logical operation is in flight;
//   * the semispace collector MOVES cells: after collect(), previously
//     held CellRefs are invalid and roots must be re-read from the slots
//     (which every collector rewrites as needed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gc/gc.hpp"
#include "heap/backend.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"

namespace small::gc {

class Collector {
 public:
  using CellRef = heap::HeapBackend::CellRef;
  static constexpr CellRef kNull = heap::HeapBackend::kNull;

  struct Options {
    /// Collect when the live registry reaches this size (and at least a
    /// quarter of it was allocated since the last collection, so a large
    /// stable live set does not thrash). Clamped to >= 4 at construction:
    /// 0 would fire at every safepoint and anything below 4 zeroes the
    /// quarter-growth thrash guard through integer division.
    std::uint64_t triggerLiveCells = 4096;
    /// Deferred-RC only: zero-count-table bound; exceeding it forces a
    /// collection at the next safepoint.
    std::size_t zctLimit = 64;
    /// Deferred-RC only: run the §4.3.2.3-style mark/sweep cycle-recovery
    /// backstop as part of every collection (what makes the final live set
    /// agree with the tracing collectors and Lpt::recoverCycles).
    bool cycleRecovery = true;
  };

  Collector(heap::HeapBackend& heap, Options options)
      : heap_(heap), options_(options) {
    if (options_.triggerLiveCells < 4) options_.triggerLiveCells = 4;
  }
  virtual ~Collector() = default;

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  virtual const char* name() const = 0;

  // --- mutator interface ---

  /// Allocate one cons cell and register it with the collector. Never
  /// collects (safepoints are the mutator's job).
  CellRef cons(heap::HeapWord car, heap::HeapWord cdr) {
    const CellRef cell = heap_.allocate(car, cdr);
    cells_.push_back(cell);
    ++allocsSinceCollect_;
    onAllocate(cell, car, cdr);
    return cell;
  }

  heap::HeapWord car(CellRef cell) const { return heap_.car(cell); }
  heap::HeapWord cdr(CellRef cell) const { return heap_.cdr(cell); }

  /// Field writes, routed through the collector so barrier-based policies
  /// see them (deferred RC counts child references here).
  virtual void setCar(CellRef cell, heap::HeapWord value) {
    heap_.setCar(cell, value);
  }
  virtual void setCdr(CellRef cell, heap::HeapWord value) {
    heap_.setCdr(cell, value);
  }

  // --- roots ---

  void resizeRoots(std::size_t slots) { roots_.resize(slots, kNull); }
  std::size_t rootCount() const { return roots_.size(); }
  CellRef root(std::size_t slot) const { return roots_.at(slot); }
  void setRoot(std::size_t slot, CellRef cell) { roots_.at(slot) = cell; }

  // --- collection ---

  /// Should the mutator pause for a collection at this safepoint?
  /// (Virtual: the generational collector adds a nursery bound, the
  /// incremental collector stays true while a cycle is in flight.)
  virtual bool shouldCollect() const {
    if (pendingCollect_) return true;
    return cells_.size() >= options_.triggerLiveCells &&
           allocsSinceCollect_ * 4 >= options_.triggerLiveCells;
  }

  /// Attach observability (may be null to detach): each collection adds
  /// its pause to `registry`'s gc.pause.touch_units histogram and records
  /// a per-cycle "gc.collect" span into `sink`. Detached (the default),
  /// collect() pays nothing beyond two pointer tests.
  void attachObs(obs::Registry* registry, obs::TraceSink* sink) {
    obsRegistry_ = registry;
    obsSink_ = sink;
  }

  /// Run one collection; returns cells reclaimed. Updates the pause
  /// distribution from the heap-touch and metadata-touch deltas.
  std::uint64_t collect() {
    sliceHeapStart_ = heap_.stats().touches();
    sliceTableStart_ = stats_.tableTouches;
    const std::uint64_t startUs =
        obsSink_ != nullptr ? obs::wallMicrosNow() : 0;
    const std::uint64_t reclaimed = doCollect();
    const std::uint64_t heapCost = heap_.stats().touches() - sliceHeapStart_;
    const std::uint64_t pause = sliceCost();
    ++stats_.collections;
    stats_.cellsReclaimed += reclaimed;
    stats_.heapTouches += heapCost;
    stats_.totalPause += pause;
    if (pause > stats_.maxPause) stats_.maxPause = pause;
    if (obsRegistry_ != nullptr) {
      obsRegistry_->histogram(obs::names::kGcPauseHistogram)
          .add(static_cast<std::int64_t>(pause));
    }
    if (obsSink_ != nullptr) {
      obsSink_->record(obs::TraceEvent{
          .name = name(),
          .category = "gc",
          .tid = obsSink_->tid(),
          .startUs = startUs,
          .durUs = obs::wallMicrosNow() - startUs,
          .costUnits = pause,
          .depth = obsSink_->depth(),
      });
    }
    pendingCollect_ = false;
    allocsSinceCollect_ = 0;
    pauseSlices_.add(static_cast<std::int64_t>(pause));
    return reclaimed;
  }

  /// Collect until the live set is exactly the root-reachable set. For
  /// the stop-the-world collectors this is one collect(); the generational
  /// collector forces a major collection, the incremental one drives a
  /// complete fresh cycle in bounded slices (each slice still lands in
  /// pauses() individually).
  virtual std::uint64_t collectFull() { return collect(); }

  // --- introspection ---

  /// Logical cells currently registered (live set after a full collect).
  std::uint64_t liveCells() const { return cells_.size(); }

  const GcStats& stats() const { return stats_; }
  const heap::HeapBackend& heap() const { return heap_; }

  /// Every collect() call's pause in touch units — one histogram entry
  /// per safepoint pause, so an incremental run's distribution is its
  /// per-slice pauses rather than whole-cycle sums.
  const support::Histogram& pauses() const { return pauseSlices_; }

  /// Cells reachable from `cell` through stored pointer words. Walks the
  /// backend's virtual car/cdr but restores the backend's stats block
  /// afterwards, so taking the fingerprint never perturbs reported
  /// HeapStats or pause figures.
  std::uint64_t reachableFrom(CellRef cell) const;

  /// reachableFrom for every root slot, in slot order (the live-set
  /// fingerprint the differential tests compare against the LPT).
  std::vector<std::uint64_t> rootReachability() const;

 protected:
  /// Policy hook: a fresh cell was registered (deferred RC counts the
  /// child references and enters the cell into the ZCT here).
  virtual void onAllocate(CellRef cell, heap::HeapWord car,
                          heap::HeapWord cdr) {
    (void)cell;
    (void)car;
    (void)cdr;
  }

  /// Policy body of collect(); returns cells reclaimed.
  virtual std::uint64_t doCollect() = 0;

  // --- the registry mark engine ---
  //
  // One mark/sweep over the registry, shared by every tracing policy:
  // mark-sweep runs it to completion, the incremental collector in
  // budgeted slices, the generational collector for its major and (behind
  // a young filter) minor collections, and deferred RC for its cycle
  // backstop. Every metadata access is one explicit tableTouches and
  // every field read goes through the backend, so each policy's counts
  // are the engine's counts. The mark table is dense over CellRef and
  // holds the number of the cycle that last marked a cell, so whitening
  // everything is one increment.

  /// A resumable in-place sweep of registry positions [pos, limit):
  /// survivors are compacted down to `out`.
  struct Sweep {
    std::size_t pos = 0;
    std::size_t limit = 0;
    std::size_t out = 0;
    bool done() const { return pos == limit; }
  };

  /// Start a mark cycle: every cell white, the gray list empty.
  void whitenAll();

  bool isMarked(CellRef cell) const {
    return cell < marks_.size() && marks_[cell] == markCycle_;
  }

  /// One mark-table touch: mark `cell` and push it gray if it was white.
  void shadeCell(CellRef cell) {
    ++stats_.tableTouches;
    coverCell(marks_, cell);
    if (marks_[cell] == markCycle_) return;
    marks_[cell] = markCycle_;
    gray_.push_back(cell);
  }

  /// shadeCell every non-empty root slot, in slot order.
  void shadeRoots() {
    for (const CellRef root : roots_) {
      if (root != kNull) shadeCell(root);
    }
  }

  /// Count `cell` traced and hand each of its pointer fields to `edge`.
  template <typename Edge>
  void traceCell(CellRef cell, Edge& edge) {
    ++stats_.cellsTraced;
    for (const heap::HeapWord word : {heap_.car(cell), heap_.cdr(cell)}) {
      if (word.isPointer()) edge(word.payload);
    }
  }

  /// The gray-trace loop: trace gray cells, newest first, until the list
  /// is empty or this collect() call has spent `budget` touch units (0 =
  /// unbounded). Pointer fields go to `edge`: shadeCell, or a policy's
  /// filter in front of it. Returns true when the gray list is empty.
  template <typename Edge>
  bool traceGray(std::uint64_t budget, Edge edge) {
    while (!gray_.empty() && (budget == 0 || sliceCost() < budget)) {
      const CellRef cell = gray_.back();
      gray_.pop_back();
      traceCell(cell, edge);
    }
    return gray_.empty();
  }
  bool traceGray(std::uint64_t budget) {
    return traceGray(budget, [this](CellRef cell) { shadeCell(cell); });
  }

  /// Stop-the-world mark: everything reachable from the root slots.
  void markFromRoots() {
    whitenAll();
    shadeRoots();
    traceGray(0);
  }

  /// Advance `sweep` (one table touch per position) until it is done or
  /// this collect() call has spent `budget` touch units (0 = unbounded):
  /// unmarked cells are freed, marked ones keep their registry order. On
  /// completion the swept gap is spliced out, so cells registered after
  /// the sweep began follow the survivors. Returns cells freed.
  std::uint64_t sweepRegistry(Sweep& sweep, std::uint64_t budget);

  /// Stop-the-world sweep of cells_[first, end).
  std::uint64_t sweepFrom(std::size_t first) {
    Sweep sweep{first, cells_.size(), first};
    return sweepRegistry(sweep, 0);
  }

  /// Grow a CellRef-indexed side table so it covers `cell`, up to the
  /// heap's cell store. A ref beyond the store is no cell at all: that
  /// breaks the registry contract and throws support::Error.
  template <typename T>
  void coverCell(std::vector<T>& table, CellRef cell, T fill = T{}) const {
    if (cell < table.size()) return;
    const std::uint64_t cellStore = heap_.cellsAllocated();
    if (cell >= cellStore) {
      throw support::Error("gc: reference past the heap's cell store");
    }
    table.resize(cellStore, fill);
  }

  /// Touch units (heap plus table) spent so far in this collect() call.
  std::uint64_t sliceCost() const {
    return (heap_.stats().touches() - sliceHeapStart_) +
           (stats_.tableTouches - sliceTableStart_);
  }

  heap::HeapBackend& heap_;
  Options options_;
  std::vector<CellRef> cells_;  ///< registry, insertion-ordered
  std::vector<CellRef> roots_;  ///< root slots (kNull = empty)
  GcStats stats_;
  obs::Registry* obsRegistry_ = nullptr;
  obs::TraceSink* obsSink_ = nullptr;
  bool pendingCollect_ = false;
  std::uint64_t allocsSinceCollect_ = 0;
  support::Histogram pauseSlices_;

 private:
  std::vector<std::uint32_t> marks_;  ///< per cell: cycle that marked it
  std::uint32_t markCycle_ = 0;
  std::vector<CellRef> gray_;  ///< marked, fields not yet traced
  std::uint64_t sliceHeapStart_ = 0;   ///< heap touches at collect() entry
  std::uint64_t sliceTableStart_ = 0;  ///< table touches at collect() entry
};

std::unique_ptr<Collector> makeMarkSweepCollector(
    heap::HeapBackend& heap, const Collector::Options& options);
std::unique_ptr<Collector> makeSemispaceCollector(
    heap::HeapBackend& heap, const Collector::Options& options);
std::unique_ptr<Collector> makeDeferredRcCollector(
    heap::HeapBackend& heap, const Collector::Options& options);
std::unique_ptr<Collector> makeGenerationalCollector(
    heap::HeapBackend& heap, const Collector::Options& options);
std::unique_ptr<Collector> makeIncrementalCollector(
    heap::HeapBackend& heap, const Collector::Options& options);

/// Factory over the collector policies (kNone is not a collector).
std::unique_ptr<Collector> makeCollector(Policy policy,
                                         heap::HeapBackend& heap,
                                         const Collector::Options& options);

}  // namespace small::gc
