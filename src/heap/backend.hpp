// The unified heap-backend abstraction: every Chapter 2 list-memory
// representation behind one cell-level interface, so the functional SMALL
// machine (small/machine.*) and the §4.3.4 emulator can run on any of
// them and representation becomes a measurable experimental axis.
//
// The contract is the §4.3.3 heap controller's: allocate/free single
// cons cells, split an object into its car/cdr words (freeing the cell),
// merge two words back into a cell (the Fig 4.8 compression write-back),
// recursively free whole objects (the queue-serviced §4.3.3.1 operation),
// and encode/decode complete s-expressions. Each backend counts its
// *physical* activity in a HeapStats block — cell allocations, frees,
// reads/writes (heap touches), split/merge counts, live-cell occupancy —
// which is where the representations differ: a cdr-coded run answers cdr
// by address arithmetic where two-pointer cells chase a pointer, and a
// linked-vector backend pays indirection elements at vector boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "heap/word.hpp"
#include "sexpr/arena.hpp"

namespace small::heap {

/// Physical-activity counters, maintained by every backend.
struct HeapStats {
  std::uint64_t allocs = 0;   ///< cons-cell allocations (incl. merges)
  std::uint64_t frees = 0;    ///< physical cells returned to the free pool
  std::uint64_t splits = 0;   ///< §4.3.3.2 split operations
  std::uint64_t merges = 0;   ///< §4.3.3.2 merge operations
  std::uint64_t reads = 0;    ///< heap cell/word reads
  std::uint64_t writes = 0;   ///< heap cell/word writes
  std::uint64_t liveCells = 0;      ///< physical cells currently occupied
  std::uint64_t peakLiveCells = 0;  ///< max of liveCells over the run

  /// Total heap touches (the §4.3.2.5 heap-controller occupancy driver).
  std::uint64_t touches() const { return reads + writes; }
};

/// Abstract heap backend. Cell references are opaque indices; words are
/// the representation-free `HeapWord` currency. Implementations may use
/// more or fewer physical cells per cons than the logical structure
/// suggests (vectorized runs, cdr-normal pairs, indirection elements);
/// the stats block records the physical truth.
class HeapBackend {
 public:
  using CellRef = std::uint64_t;
  static constexpr CellRef kNull = ~0ull;

  struct SplitResult {
    HeapWord car;
    HeapWord cdr;
  };

  virtual ~HeapBackend() = default;

  /// Representation name for reports ("two-pointer", "cdr-coded", ...).
  virtual const char* name() const = 0;

  /// Allocate one cons cell.
  virtual CellRef allocate(HeapWord car, HeapWord cdr) = 0;

  /// Return one cons cell to the free pool (not its substructure).
  virtual void free(CellRef cell) = 0;

  /// Recursively free the object rooted at `cell` (§4.3.3.1 queue-serviced
  /// free). Returns physical cells reclaimed; shared substructure already
  /// reclaimed is skipped.
  virtual std::uint64_t freeObject(CellRef cell) = 0;

  virtual HeapWord car(CellRef cell) const = 0;
  virtual HeapWord cdr(CellRef cell) const = 0;
  virtual void setCar(CellRef cell, HeapWord value) = 0;
  virtual void setCdr(CellRef cell, HeapWord value) = 0;

  /// §4.3.3.2 split: return both halves and free the cell.
  virtual SplitResult split(CellRef cell) = 0;

  /// §4.3.3.2 merge: inverse of split (an allocation, counted as a merge).
  virtual CellRef merge(HeapWord car, HeapWord cdr) = 0;

  /// Copy an s-expression into the heap using the representation's
  /// natural layout (vectorized runs for coded backends); returns the
  /// root word. Atoms encode as immediate words without heap activity.
  virtual HeapWord encode(const sexpr::Arena& arena, sexpr::NodeRef root) = 0;

  struct CollectResult {
    std::uint64_t reclaimed = 0;  ///< physical cells freed
    std::uint64_t traced = 0;     ///< live cons cells marked
  };

  /// Stop-the-world mark-sweep over the *physical* cell store: mark
  /// everything reachable from the given root words, free every other
  /// occupied cell. Representation metadata participates — forwarding
  /// cells (invisible pointers, indirection elements) survive with the
  /// object that forwards through them, cdr-error/cdr-slot cells with
  /// their pair head — so reads/writes land in stats() with the same
  /// touch accounting as mutator activity. Used by SmallMachine when
  /// Config::gcPolicy defers its refcount-driven frees to a collector.
  /// Equivalent to gcBegin() + one unbounded gcStep().
  CollectResult collectGarbage(const std::vector<HeapWord>& roots);

  // --- resumable collection driver ---
  //
  // The same mark-sweep as collectGarbage, but startable and then driven
  // in bounded touch-unit slices with the mutator running between slices
  // (SmallMachine's incremental policy). Between gcBegin and the final
  // gcStep the backend is in an active cycle: allocations are recorded
  // black (they survive the cycle), split() shades its result words and
  // setCar/setCdr shade overwritten pointers — the snapshot-at-the-
  // beginning invariant — so everything live at gcBegin or allocated
  // since survives. Garbage dying mid-cycle floats to the next cycle.

  /// Start a collection cycle from the given roots. `youngOnly` restricts
  /// the cycle to cells recorded since the last promotion (requires
  /// setYoungTracking(true)); old cells terminate the trace and the sweep
  /// visits only young cells. Throws if a cycle is already active.
  void gcBegin(const std::vector<HeapWord>& roots, bool youngOnly = false);

  /// Run one slice of at most `touchBudget` heap touches (0 = unbounded);
  /// accumulates into `result`. Returns true when the cycle completed.
  bool gcStep(std::uint64_t touchBudget, CollectResult& result);

  /// Is a collection cycle in flight?
  bool gcActive() const { return gcPhase_ != GcPhase::kIdle; }

  // --- generational support ---

  /// Record subsequently allocated cells as "young" so collectYoung can
  /// sweep just them. Every completed collection (young or full)
  /// promotes: the young record and remembered set are cleared.
  void setYoungTracking(bool enabled) { youngTracking_ = enabled; }

  /// Cell slots recorded young since the last promotion (an allocation
  /// count, the minor-collection trigger).
  std::uint64_t youngCells() const { return youngList_.size(); }

  /// Synchronous minor collection: trace roots and the remembered set
  /// into the young generation only, sweep only young cells, promote the
  /// survivors. Old cells are conservatively live until collectGarbage.
  CollectResult collectYoung(const std::vector<HeapWord>& roots);

  /// Rebuild an s-expression from heap structure. Implemented once over
  /// the virtual car/cdr so every backend's decode pays its own touch
  /// profile.
  sexpr::NodeRef decode(sexpr::Arena& arena, HeapWord root) const;

  /// Physical cells ever allocated (high-water of the cell store).
  virtual std::uint64_t cellsAllocated() const = 0;
  /// Physical cells currently live.
  std::uint64_t cellsLive() const { return stats_.liveCells; }

  const HeapStats& stats() const { return stats_; }
  /// Restore a previously captured stats block. Lets read-only diagnostic
  /// walks (the collector's live-set fingerprint) run over the virtual
  /// car/cdr without perturbing reported reads or pause figures.
  void restoreStats(const HeapStats& snapshot) const { stats_ = snapshot; }
  void resetStats() {
    const std::uint64_t live = stats_.liveCells;
    stats_ = HeapStats{};
    stats_.liveCells = live;
    stats_.peakLiveCells = live;
  }

 protected:
  void noteAlloc(std::uint64_t cells) {
    stats_.liveCells += cells;
    if (stats_.liveCells > stats_.peakLiveCells) {
      stats_.peakLiveCells = stats_.liveCells;
    }
  }
  void noteFree(std::uint64_t cells) {
    stats_.frees += cells;
    stats_.liveCells -= cells;
  }

  // --- collection SPI (the per-representation mark/trace/sweep bodies;
  //     the base class owns the driver loop and tri-color state) ---

  /// Mark `cell` and push it gray, chasing forwarding chains (invisible
  /// pointers, indirection elements) with the representation's touch
  /// accounting. Must return without effect for refs beyond the cycle's
  /// mark-table snapshot (implicitly black), freed cells (a stale gray or
  /// shaded ref), and — in a young-only cycle — old cells.
  virtual void gcVisit(CellRef cell) = 0;

  /// Trace one gray cell's children through gcVisit, with stats identical
  /// to the stop-the-world trace. Must return without effect if the cell
  /// was freed after it went gray.
  virtual void gcTraceOne(CellRef cell, CollectResult& result) = 0;

  /// Sweep one cell-store position: skip freed or marked, free the rest.
  /// Stats identical to one iteration of the stop-the-world sweep.
  virtual void gcSweepAt(CellRef cell, CollectResult& result) = 0;

  // --- helpers the backends call at their mutation points ---

  /// Record `slots` freshly allocated cells starting at `head` (a cons,
  /// an adjacent pair, or one encoded-run element each): young-records
  /// them, and during an active cycle marks them black (a reused ref
  /// must not be swept; refs beyond the mark-table snapshot already
  /// are). During marking the head also goes gray so stored pointers
  /// get traced.
  void gcNoteAlloc(CellRef head, std::uint64_t slots) {
    if (youngTracking_) {
      for (std::uint64_t i = 0; i < slots; ++i) {
        const CellRef ref = head + i;
        if (ref >= youngFlag_.size()) youngFlag_.resize(ref + 1, false);
        youngFlag_[ref] = true;
        youngList_.push_back(ref);
      }
    }
    if (gcPhase_ == GcPhase::kIdle) return;
    for (std::uint64_t i = 0; i < slots; ++i) {
      if (head + i < gcMarked_.size()) gcMarked_[head + i] = true;
    }
    if (gcPhase_ == GcPhase::kMark && head < gcMarked_.size()) {
      gcGray_.push_back(head);
    }
  }

  /// SATB shade: a pointer word is being overwritten or its holding cell
  /// destroyed (split); keep its target in the snapshot's live set.
  void gcShadeWord(HeapWord word) {
    if (gcPhase_ != GcPhase::kMark || !word.isPointer()) return;
    gcVisit(word.payload);
  }

  /// Is the mark phase active (for backends that must read the old value
  /// of a field only when a shade would consume it)?
  bool gcMarking() const { return gcPhase_ == GcPhase::kMark; }

  /// Young membership (O(1) flag test).
  bool isYoung(CellRef cell) const {
    return cell < youngFlag_.size() && youngFlag_[cell];
  }

  /// Remembered-set entry: `target` is a young cell newly referenced
  /// from an old cell; minor collections treat it as a root. (Targets,
  /// not sources, are remembered: old cells are then never traced, and
  /// an overwritten old→young edge merely floats its target one minor
  /// cycle.) No-op unless young tracking is on.
  void gcRemember(CellRef target) {
    if (!youngTracking_ || !isYoung(target)) return;
    if (target >= rememberedFlag_.size()) {
      rememberedFlag_.resize(target + 1, false);
    }
    if (rememberedFlag_[target]) return;
    rememberedFlag_[target] = true;
    remembered_.push_back(target);
  }

  bool gcYoungOnly() const { return gcYoungOnly_; }

  std::vector<bool> gcMarked_;       ///< cycle mark table (snapshot-sized)
  std::vector<CellRef> gcGray_;      ///< marked, children not yet traced

  mutable HeapStats stats_;

 private:
  enum class GcPhase : std::uint8_t { kIdle, kMark, kSweep };

  void gcPromote() {
    youngList_.clear();
    youngFlag_.clear();
    remembered_.clear();
    rememberedFlag_.clear();
  }

  GcPhase gcPhase_ = GcPhase::kIdle;
  bool gcYoungOnly_ = false;
  CellRef gcSweepCursor_ = 0;        ///< full sweep: next cell-store position
  std::size_t gcYoungSweepPos_ = 0;  ///< young sweep: next youngList_ index
  bool youngTracking_ = false;
  std::vector<CellRef> youngList_;   ///< young refs in allocation order
  std::vector<bool> youngFlag_;
  std::vector<CellRef> remembered_;  ///< young cells referenced from old ones
  std::vector<bool> rememberedFlag_;
};

/// The selectable representations.
enum class HeapBackendKind : std::uint8_t {
  kTwoPointer,    ///< Fig 2.6 two-pointer cells with a LIFO free list
  kCdrCoded,      ///< Fig 2.8 MIT-style cdr coding with invisible pointers
  kLinkedVector,  ///< Fig 2.7 linked vectors with indirection elements
};

inline constexpr HeapBackendKind kAllHeapBackendKinds[] = {
    HeapBackendKind::kTwoPointer, HeapBackendKind::kCdrCoded,
    HeapBackendKind::kLinkedVector};

const char* heapBackendName(HeapBackendKind kind);

std::unique_ptr<HeapBackend> makeHeapBackend(HeapBackendKind kind);

}  // namespace small::heap
