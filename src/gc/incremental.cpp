// Incremental mark-sweep: tri-color marking spread across bounded
// safepoint slices, with a snapshot-at-the-beginning (SATB) write
// barrier. Each collect() call runs ONE slice of the shared mark engine
// (gc/collector.hpp), bounded by kStepBudget touch units, so every entry
// in the pause distribution is a bounded slice rather than a whole-cycle
// pause — exactly the comparison against the stop-the-world collectors.
//
// Tri-color invariant (SATB form): every cell reachable at the moment a
// cycle begins, plus every cell allocated while the cycle is in flight,
// survives that cycle. White = unmarked, gray = marked and on the
// engine's gray list, black = marked and traced. Two mutator hooks
// maintain it between slices:
//   * setCar/setCdr shade the OVERWRITTEN pointer during marking — the
//     snapshot-reachable target stays reachable through the mark table
//     even if this store severed its last heap path;
//   * onAllocate shades new cells on arrival, during the sweep too, so a
//     reused CellRef ahead of the sweep cursor is not freed (a gray entry
//     made in the sweep is never traced; the next cycle drops it).
// Dead-at-snapshot-start cells a store resurrects into a black cell are
// impossible: the mutator can only store pointers it read from live
// structure, and SATB keeps that structure marked. The cost is floating
// garbage — cells dying mid-cycle survive until the next cycle — which
// is why collectFull() finishes the in-flight cycle and then runs one
// more complete cycle while the mutator is quiescent: that fresh cycle's
// live set is exactly the root-reachable set, preserving the bit-equal
// contract the differential tests demand.
#include "gc/collector.hpp"

namespace small::gc {
namespace {

/// Touch-unit budget of one collect() slice (the bounded safepoint pause).
constexpr std::uint64_t kStepBudget = 2048;

class IncrementalCollector final : public Collector {
 public:
  using Collector::Collector;

  const char* name() const override { return "incremental"; }

  void setCar(CellRef cell, heap::HeapWord value) override {
    shade(heap_.car(cell));
    ++stats_.barrierOps;
    heap_.setCar(cell, value);
  }
  void setCdr(CellRef cell, heap::HeapWord value) override {
    shade(heap_.cdr(cell));
    ++stats_.barrierOps;
    heap_.setCdr(cell, value);
  }

  bool shouldCollect() const override {
    if (phase_ != Phase::kIdle) return true;  // finish the cycle in slices
    return Collector::shouldCollect();
  }

  std::uint64_t collectFull() override {
    std::uint64_t reclaimed = 0;
    while (phase_ != Phase::kIdle) reclaimed += collect();
    reclaimed += collect();  // start a fresh cycle while quiescent
    while (phase_ != Phase::kIdle) reclaimed += collect();
    return reclaimed;
  }

 protected:
  void onAllocate(CellRef cell, heap::HeapWord car,
                  heap::HeapWord cdr) override {
    (void)car;
    (void)cdr;
    // Allocate black: in-flight allocations survive the cycle. During
    // marking the gray entry also gets pointers stored at birth traced.
    if (phase_ != Phase::kIdle) shadeCell(cell);
  }

  std::uint64_t doCollect() override {
    if (phase_ == Phase::kIdle) {
      // Cycle start: snapshot the roots atomically (root scanning is not
      // incremental — the root file is a few registers, and an atomic
      // scan is what makes SATB's snapshot well-defined).
      whitenAll();
      shadeRoots();
      phase_ = Phase::kMark;
    }

    if (phase_ == Phase::kMark) {
      if (!traceGray(kStepBudget)) return 0;  // slice exhausted mid-mark
      // Marking complete: snapshot the registry extent to sweep. Cells
      // allocated after this point are beyond the snapshot and untouched.
      phase_ = Phase::kSweep;
      sweep_ = Sweep{0, cells_.size(), 0};
    }

    const std::uint64_t reclaimed = sweepRegistry(sweep_, kStepBudget);
    if (!sweep_.done()) return reclaimed;  // slice exhausted mid-sweep
    phase_ = Phase::kIdle;
    ++stats_.fullCycles;
    return reclaimed;
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kMark, kSweep };

  /// SATB barrier: gray the about-to-be-overwritten pointer so the
  /// snapshot stays reachable through the mark table.
  void shade(heap::HeapWord old) {
    if (phase_ != Phase::kMark || !old.isPointer()) return;
    shadeCell(old.payload);
  }

  Phase phase_ = Phase::kIdle;
  Sweep sweep_;  ///< the cycle's registry sweep, resumed slice by slice
};

}  // namespace

std::unique_ptr<Collector> makeIncrementalCollector(
    heap::HeapBackend& heap, const Collector::Options& options) {
  return std::make_unique<IncrementalCollector>(heap, options);
}

}  // namespace small::gc
