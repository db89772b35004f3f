// Deferred reference counting with a bounded zero-count table, mirroring
// the LPT's lazy-decrement discipline (§4.3.2.1) at the cell level. The
// write barrier keeps per-cell counts for heap-internal references only —
// root slots are uncounted, which is what makes the counting cheap and the
// ZCT necessary: a cell whose count reaches zero is merely *suspect*, and
// judgment is deferred to the next collection, where suspects still
// unreferenced and unrooted are freed and their child decrements performed
// (recursively, through the same table). When the ZCT outgrows its bound,
// a collection is forced at the next safepoint — the cell-level analog of
// the LPT's bounded free-queue flow control (§4.3.3.1).
//
// Pure counting never reclaims cycles; the optional backstop
// (Options::cycleRecovery, on by default) runs the shared mark engine
// (gc/collector.hpp) from the roots and frees unmarked cells after
// settling their edges into survivors — the same discipline as
// Lpt::recoverCycles, and what makes this collector's final live set
// agree with the tracing collectors.
#include "gc/collector.hpp"

namespace small::gc {
namespace {

class DeferredRcCollector final : public Collector {
 public:
  using Collector::Collector;

  const char* name() const override { return "deferred-rc"; }

  void setCar(CellRef cell, heap::HeapWord value) override {
    const heap::HeapWord old = heap_.car(cell);
    heap_.setCar(cell, value);
    barrier(value, old);
  }

  void setCdr(CellRef cell, heap::HeapWord value) override {
    const heap::HeapWord old = heap_.cdr(cell);
    heap_.setCdr(cell, value);
    barrier(value, old);
  }

 protected:
  void onAllocate(CellRef cell, heap::HeapWord car,
                  heap::HeapWord cdr) override {
    ++stats_.tableTouches;
    coverCell(meta_, cell);
    meta_[cell] = Meta{.registered = true, .inZct = true};
    zct_.push_back(cell);
    noteZctGrowth();
    if (car.isPointer()) incRef(car.payload);
    if (cdr.isPointer()) incRef(cdr.payload);
  }

  std::uint64_t doCollect() override {
    // Shade the roots: until the backstop traces, the marked cells are
    // exactly the rooted ones.
    whitenAll();
    shadeRoots();

    // Reconciliation: drain the ZCT as a queue. A suspect with a nonzero
    // count was resurrected by a later store; a rooted suspect stays (its
    // zero count is legitimate — roots are uncounted). The rest are
    // garbage: free them and perform the deferred child decrements, which
    // can push fresh suspects onto the queue.
    std::uint64_t reclaimed = 0;
    for (std::size_t next = 0; next < zct_.size(); ++next) {
      const CellRef cell = zct_[next];
      ++stats_.tableTouches;
      ++stats_.cellsTraced;
      Meta& meta = metaOf(cell);
      if (meta.rc > 0) {
        meta.inZct = false;
        continue;
      }
      if (isMarked(cell)) continue;  // rooted
      const heap::HeapWord carWord = heap_.car(cell);
      const heap::HeapWord cdrWord = heap_.cdr(cell);
      heap_.free(cell);
      meta = Meta{};
      ++reclaimed;
      for (const heap::HeapWord word : {carWord, cdrWord}) {
        if (!word.isPointer()) continue;
        ++stats_.deferredDecrements;
        derefChild(word.payload);
      }
    }

    // Cycle-recovery backstop: counting cannot free cyclic garbage (its
    // members keep each other's counts positive). Mark from the roots
    // (the root scan is paid again; the roots are gray already); unmarked
    // survivors are cyclic garbage — settle their edges into marked
    // cells, then free them.
    if (options_.cycleRecovery) {
      shadeRoots();
      traceGray(0);
      for (const CellRef cell : cells_) {
        ++stats_.tableTouches;
        Meta& meta = meta_[cell];
        if (!meta.registered || isMarked(cell)) continue;
        const heap::HeapWord carWord = heap_.car(cell);
        const heap::HeapWord cdrWord = heap_.cdr(cell);
        for (const heap::HeapWord word : {carWord, cdrWord}) {
          if (!word.isPointer() || !isMarked(word.payload)) continue;
          ++stats_.deferredDecrements;
          derefChild(word.payload);
        }
        heap_.free(cell);
        meta = Meta{};
        ++reclaimed;
      }
    }

    // Rebuild the registry and the ZCT in registry order, so the table's
    // contents are deterministic regardless of drain interleaving.
    std::size_t out = 0;
    zct_.clear();
    for (const CellRef cell : cells_) {
      ++stats_.tableTouches;
      Meta& meta = meta_[cell];
      if (!meta.registered) continue;  // freed above
      cells_[out++] = cell;
      meta.inZct = meta.rc == 0;
      if (meta.inZct) zct_.push_back(cell);
    }
    cells_.resize(out);
    if (zct_.size() > stats_.zctHighWater) stats_.zctHighWater = zct_.size();
    return reclaimed;
  }

 private:
  struct Meta {
    std::uint32_t rc = 0;
    bool registered = false;  ///< allocated through cons(), not yet freed
    bool inZct = false;
  };

  /// The registered cell's counts; a pointer to any other cell breaks
  /// the registry contract.
  Meta& metaOf(CellRef cell) {
    if (cell >= meta_.size() || !meta_[cell].registered) {
      throw support::Error(
          "deferred-rc: pointer to a cell not allocated through the "
          "collector");
    }
    return meta_[cell];
  }

  void noteZctGrowth() {
    if (zct_.size() > stats_.zctHighWater) stats_.zctHighWater = zct_.size();
    if (!pendingCollect_ && zct_.size() > options_.zctLimit) {
      pendingCollect_ = true;
      ++stats_.zctOverflows;
    }
  }

  /// Mutator-side write barrier: count the new reference before
  /// discounting the old one (the order that keeps self-stores safe).
  void barrier(heap::HeapWord added, heap::HeapWord removed) {
    if (added.isPointer()) incRef(added.payload);
    if (removed.isPointer()) decRef(removed.payload);
  }

  void incRef(CellRef cell) {
    ++stats_.barrierOps;
    ++stats_.tableTouches;
    ++metaOf(cell).rc;
  }

  void decRef(CellRef cell) {
    ++stats_.barrierOps;
    ++stats_.tableTouches;
    Meta& meta = metaOf(cell);
    --meta.rc;
    if (meta.rc == 0 && !meta.inZct) {
      meta.inZct = true;
      zct_.push_back(cell);
      noteZctGrowth();
    }
  }

  /// Collection-side decrement (deferred work, not mutator barrier cost).
  void derefChild(CellRef cell) {
    ++stats_.tableTouches;
    Meta& meta = metaOf(cell);
    --meta.rc;
    if (meta.rc == 0 && !meta.inZct) {
      meta.inZct = true;
      zct_.push_back(cell);
    }
  }

  std::vector<Meta> meta_;    ///< dense over CellRef
  std::vector<CellRef> zct_;  ///< suspects, in discovery order
};

}  // namespace

std::unique_ptr<Collector> makeDeferredRcCollector(
    heap::HeapBackend& heap, const Collector::Options& options) {
  return std::make_unique<DeferredRcCollector>(heap, options);
}

}  // namespace small::gc
