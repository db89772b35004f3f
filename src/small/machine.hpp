// A functional SMALL memory system: a real LPT over a real heap
// (Chapter 4 executed, rather than statistically simulated). The heap is
// any of the Chapter 2 representations behind the heap::HeapBackend
// interface — two-pointer cells by default, cdr-coded or linked-vector by
// Config — and the machine never sees representation detail.
//
// Where `ListProcessor` models object shapes and addresses to drive the
// Chapter 5 measurements, `SmallMachine` actually stores list structure:
// readlist materializes an s-expression into heap cells, car/cdr split
// real heap objects on demand and cache the edges in LPT fields, cons
// builds endo-structure that exists only in the table, compression merges
// it back into heap cells (Fig 4.8 with real data), and writelist
// materializes any value back into an s-expression. The machine is the
// substrate the §4.3.4 emulator "traces the LPT and the heap" against,
// and the differential tests check it against plain s-expression
// semantics operation by operation.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "gc/gc.hpp"
#include "heap/backend.hpp"
#include "sexpr/arena.hpp"
#include "small/config.hpp"
#include "small/ref_shadow.hpp"
#include "support/error.hpp"

namespace small::core {

class SmallMachine {
 public:
  /// The EP's view of a value: an immediate atom or an LPT identifier.
  struct Value {
    enum class Kind : std::uint8_t { kNil, kSymbol, kInteger, kObject };
    Kind kind = Kind::kNil;
    std::uint64_t payload = 0;  ///< symbol id / integer bits
    std::uint32_t id = 0;       ///< LPT identifier when kObject

    static Value nil() { return {}; }
    static Value symbol(std::uint64_t s) { return {Kind::kSymbol, s, 0}; }
    static Value integer(std::int64_t v) {
      return {Kind::kInteger, static_cast<std::uint64_t>(v), 0};
    }
    bool isObject() const { return kind == Kind::kObject; }
  };

  struct Config {
    std::uint32_t tableSize = 1024;
    CompressionPolicy compression = CompressionPolicy::kCompressOne;
    /// §4.3.3.1: pending heap free requests are queued and serviced in
    /// batches; the bounded queue is the LP->heap flow control.
    std::size_t freeQueueLimit = 32;
    /// Which Chapter 2 list representation backs the heap. The machine's
    /// logic (and its representation-independent counters) is identical
    /// across backends; only the physical heap activity differs.
    heap::HeapBackendKind heapBackend = heap::HeapBackendKind::kTwoPointer;
    /// Heap reclamation discipline. kNone is the paper's machine: counts
    /// reaching zero queue eager heap frees (§4.3.3.1). The collector
    /// policies drop those frees and reclaim from the table's address
    /// words at operation-boundary safepoints instead (counters in
    /// gcStats()):
    ///   - kMarkSweep: stop-the-world HeapBackend::collectGarbage once
    ///     cellsLive reaches gcTriggerCells.
    ///   - kGenerational: minor collections (HeapBackend::collectYoung)
    ///     once gcTriggerCells/4 cells have been allocated since the last
    ///     promotion, full collections on the kMarkSweep trigger.
    ///   - kIncremental: a cycle is armed on the kMarkSweep trigger, then
    ///     advanced one gcStepBudget-bounded slice per safepoint until it
    ///     completes — no pause exceeds the slice budget.
    /// The relocating and registry-based collectors (kSemispace,
    /// kDeferredRc) cannot run under the LPT's pinned address words —
    /// drive them with the standalone gc/script harness instead;
    /// selecting them here throws.
    gc::Policy gcPolicy = gc::Policy::kNone;
    /// Physical-cell occupancy that arms a full collection. Values below
    /// 4 are clamped to 4: 0 would fire a collection at every safepoint,
    /// and anything smaller than 4 zeroes the quarter-growth anti-thrash
    /// guard (and the kGenerational minor trigger) by integer division.
    std::uint64_t gcTriggerCells = 4096;
    /// kIncremental: heap-touch budget of one safepoint collection slice
    /// (the bounded-pause knob). 0 runs each armed cycle to completion at
    /// one safepoint, degenerating to stop-the-world.
    std::uint64_t gcStepBudget = 2048;
  };

  /// Representation-independent event counters: these depend only on the
  /// logical structure the EP builds, so they must come out identical for
  /// every heap backend (the differential tests assert exactly that).
  /// Physical heap activity lives in heapStats().
  struct Stats {
    std::uint64_t gets = 0;   ///< LPT entry allocations (§4.3.2 "get")
    std::uint64_t frees = 0;  ///< LPT entries returned to the free pool
    std::uint64_t splits = 0;
    std::uint64_t hits = 0;  ///< car/cdr answered from cached LPT fields
    std::uint64_t merges = 0;
    std::uint64_t conses = 0;
    std::uint64_t modifies = 0;   ///< rplaca/rplacd operations
    std::uint64_t readLists = 0;  ///< readlist materializations
    std::uint64_t pseudoOverflows = 0;
    std::uint64_t refOps = 0;
    std::uint64_t cycleRecoveries = 0;
    std::uint64_t heapFreesServiced = 0;
    std::size_t freeQueueHighWater = 0;
    std::uint32_t peakEntriesInUse = 0;  ///< max LPT occupancy
  };

  SmallMachine() : SmallMachine(Config{}) {}
  explicit SmallMachine(Config config);

  // --- the LP primitives, operating on real structure ---

  /// readlist: materialize `ref` (from `arena`) into the heap and return
  /// a value holding one EP reference.
  Value readList(const sexpr::Arena& arena, sexpr::NodeRef ref);

  /// car/cdr: from the LPT fields when present, else split the heap
  /// object. The returned value carries a fresh EP reference when it is
  /// an object.
  Value car(Value list) { return access(list, /*wantCar=*/true); }
  Value cdr(Value list) { return access(list, /*wantCar=*/false); }

  /// cons: pure endo-structure; no heap activity (§4.3.2.2.4).
  Value cons(Value head, Value tail);

  void rplaca(Value list, Value value) { modify(list, value, true); }
  void rplacd(Value list, Value value) { modify(list, value, false); }

  /// writelist: materialize the value back into an s-expression.
  sexpr::NodeRef writeList(sexpr::Arena& arena, Value value) const;

  // --- EP reference management ---
  void retain(Value value);   ///< duplicate an EP reference
  void release(Value value);  ///< drop an EP reference

  // --- introspection ---
  const Stats& stats() const { return stats_; }
  std::uint32_t entriesInUse() const { return inUse_; }
  std::uint64_t heapCellsLive() const { return heap_->cellsLive(); }
  std::size_t pendingHeapFrees() const { return freeQueue_.size(); }
  /// The backing representation and its physical-activity counters.
  const heap::HeapBackend& heap() const { return *heap_; }
  const heap::HeapStats& heapStats() const { return heap_->stats(); }

  /// Run one compression pass; returns merges performed (exposed for the
  /// Fig 4.8 tests; normally triggered by table pressure).
  std::uint64_t compress(bool all);

  /// Drain the heap free queue completely (under the collector policies,
  /// where no frees are queued, this runs a full collection instead —
  /// the shutdown-time "everything not in the table is garbage" sweep).
  void serviceAllHeapFrees();

  /// Run one full heap collection now, regardless of the trigger: mark
  /// from the in-use entries' address words, sweep the rest of the cell
  /// store. An in-flight incremental cycle is finished (unbounded) first
  /// so the fresh collection sees current liveness, not a stale
  /// snapshot. Returns physical cells reclaimed.
  std::uint64_t collectHeapGarbage();

  /// Run one minor collection now (kGenerational): trace the table's
  /// address words and the remembered set into the young cells only,
  /// sweep only those, promote the survivors. Returns cells reclaimed.
  std::uint64_t collectHeapMinor();

  /// Advance an incremental collection by one slice of at most
  /// `touchBudget` heap touches (0 = unbounded), starting a cycle from
  /// the table's address words if none is active. Returns true when the
  /// cycle completed. maybeCollectHeap drives this with
  /// Config::gcStepBudget under kIncremental.
  bool collectHeapStep(std::uint64_t touchBudget);

  /// Collection counters (collector policies). Kept apart from Stats:
  /// collection timing depends on *physical* occupancy, which differs
  /// per backend, while Stats must stay backend-invariant. Under
  /// kIncremental, `collections` counts slices and each pause sample is
  /// one slice; `fullCycles` counts completed cycles.
  const gc::GcStats& gcStats() const { return gcStats_; }

  /// Render the in-use LPT entries in the style of Fig 4.9's tables
  /// (ID | CAR | CDR | REF | ADDR).
  std::string dumpTable(const sexpr::SymbolTable& symbols) const;

 private:
  // An LPT entry. Exactly one of {hasFields, hasAddr} holds for live
  // list objects: split/cons entries carry field values, unsplit entries
  // carry the heap word of their representation.
  struct Entry {
    bool inUse = false;
    bool hasFields = false;
    Value carField;
    Value cdrField;
    heap::HeapWord addr;  ///< heap representation when !hasFields
    std::uint32_t refCount = 0;
    bool mark = false;
  };

  Value access(Value list, bool wantCar);
  void modify(Value list, Value value, bool isCar);

  Entry& entry(std::uint32_t id);
  const Entry& entry(std::uint32_t id) const;

  std::uint32_t allocateEntry();
  void incRef(std::uint32_t id);
  void decRef(std::uint32_t id);
  void freeEntry(std::uint32_t id);
  bool ensureFree(std::uint32_t needed);
  std::uint64_t recoverCycles();

  /// Wrap a heap word as a Value (allocating an entry for pointers).
  Value wordToValue(heap::HeapWord word);
  /// Render a field value as a heap word, for merges; requires the value
  /// to be an atom or an unsplit object (whose entry is then released).
  heap::HeapWord valueToWord(const Value& value);

  void split(std::uint32_t id);
  bool compressiblePair(std::uint32_t id) const;
  void mergePair(std::uint32_t id);
  bool mergeableField(const Value& field) const;

  void queueHeapFree(heap::HeapWord word);

  /// Does the configured policy reclaim by collection (dropping queued
  /// frees) rather than by the §4.3.3.1 free queue?
  bool usesCollector() const;

  /// The complete heap root set: every in-use unsplit entry's address
  /// word (split transfers ownership of the halves to fresh entries,
  /// merge transfers it back).
  std::vector<heap::HeapWord> heapRoots() const;

  /// Fold one collection's activity into gcStats_ (pause = heap-touch
  /// delta since `touchesBefore`).
  void recordCollection(const heap::HeapBackend::CollectResult& result,
                        std::uint64_t touchesBefore);

  /// Operation-boundary safepoint: collect (or advance a slice) if
  /// armed. Only called where no transient heap words are held outside
  /// the table (end of readList / release / modify), so the table's
  /// address words are a complete root set.
  void maybeCollectHeap();

  Config config_;
  std::unique_ptr<heap::HeapBackend> heap_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> freeStack_;
  std::uint32_t inUse_ = 0;
  RefShadow epRefs_;  ///< compressibility and cycle-recovery roots
  std::deque<heap::HeapBackend::CellRef> freeQueue_;
  Stats stats_;
  gc::GcStats gcStats_;
  /// Live-cell floor after the last collection (anti-thrash: the next one
  /// waits for gcTriggerCells/4 cells of fresh growth).
  std::uint64_t gcFloorLive_ = 0;
};

}  // namespace small::core
