// Generational collector: a nursery of recently-registered cells, a
// remembered set maintained by the setCar/setCdr write barrier, minor
// collections that trace only the nursery (entering through young roots
// and the young fields of remembered old cells), and periodic major
// collections that restore the exact root-reachable live set. Both kinds
// run the shared mark engine (gc/collector.hpp); a minor collection puts
// its young test in front of shadeCell.
//
// The registry is kept partitioned by insertion order: cells_[0,
// youngStart_) are the old generation, cells_[youngStart_, end) the
// nursery. A minor collection compacts nursery survivors in place and
// then advances youngStart_ past them — promotion is one pointer move,
// and the registry stays insertion-ordered so downstream reports remain
// deterministic.
//
// Soundness of the minor collection rests on the barrier invariant:
// every old→young pointer's source cell is in the remembered set. The
// mutator only creates such an edge through setCar/setCdr (cons cells
// are born young, so a fresh cell's own fields can only make
// young→anything edges), and the barrier records the source whenever an
// old cell receives a young pointer. Old cells and anything they keep
// alive are conservatively retained until the next major collection —
// that float is the price of not tracing the old generation, and the
// periodic major collection (or collectFull()) pays it back.
#include "gc/collector.hpp"

namespace small::gc {
namespace {

class GenerationalCollector final : public Collector {
 public:
  using Collector::Collector;

  const char* name() const override { return "generational"; }

  void setCar(CellRef cell, heap::HeapWord value) override {
    barrier(cell, value);
    heap_.setCar(cell, value);
  }
  void setCdr(CellRef cell, heap::HeapWord value) override {
    barrier(cell, value);
    heap_.setCdr(cell, value);
  }

  /// Also arm a minor collection once the nursery holds a quarter of the
  /// live-size trigger.
  bool shouldCollect() const override {
    if (Collector::shouldCollect()) return true;
    return youngCount() >= options_.triggerLiveCells / 4;
  }

  std::uint64_t collectFull() override {
    forceMajor_ = true;
    const std::uint64_t reclaimed = collect();
    forceMajor_ = false;
    return reclaimed;
  }

 protected:
  void onAllocate(CellRef cell, heap::HeapWord car,
                  heap::HeapWord cdr) override {
    (void)car;
    (void)cdr;
    ++stats_.tableTouches;
    coverCell(gen_, cell);
    gen_[cell] = kYoung;
  }

  std::uint64_t doCollect() override {
    // A minor collection cannot shrink the old generation, so when the
    // nursery is empty (or enough has been promoted since the last full
    // trace) only a major collection makes progress.
    if (forceMajor_ || youngCount() == 0 ||
        promotedSinceMajor_ >= options_.triggerLiveCells) {
      return collectMajor();
    }
    return collectMinor();
  }

 private:
  static constexpr std::uint8_t kYoung = 1;       ///< in the nursery
  static constexpr std::uint8_t kRemembered = 2;  ///< in remembered_

  std::uint64_t youngCount() const { return cells_.size() - youngStart_; }

  bool isYoung(CellRef cell) const {
    return cell < gen_.size() && (gen_[cell] & kYoung) != 0;
  }

  /// Remember `cell` if this store creates an old→young edge.
  void barrier(CellRef cell, heap::HeapWord value) {
    ++stats_.barrierOps;
    if (!value.isPointer()) return;
    ++stats_.tableTouches;
    if (isYoung(cell)) return;  // young source: traced anyway
    ++stats_.tableTouches;
    if (!isYoung(value.payload)) return;  // old→old edge
    ++stats_.tableTouches;
    coverCell(gen_, cell);
    if ((gen_[cell] & kRemembered) != 0) return;
    gen_[cell] |= kRemembered;
    remembered_.push_back(cell);
  }

  /// Promote the whole nursery and empty the remembered set (the
  /// generation flags; the caller's sweep settles the registry).
  void resetGenerations() {
    for (std::size_t i = youngStart_; i < cells_.size(); ++i) {
      gen_[cells_[i]] = 0;
    }
    for (const CellRef cell : remembered_) gen_[cell] = 0;
    remembered_.clear();
  }

  std::uint64_t collectMinor() {
    // Mark: reachability restricted to the nursery. Old cells terminate
    // the trace — they are conservatively live, and any young cell they
    // reference is reachable through a remembered cell's fields.
    const auto visit = [this](CellRef cell) {
      ++stats_.tableTouches;
      if (isYoung(cell)) shadeCell(cell);  // old generation: stop
    };
    whitenAll();
    for (const CellRef root : roots_) {
      if (root != kNull) visit(root);
    }
    for (const CellRef cell : remembered_) traceCell(cell, visit);
    traceGray(0, visit);
    resetGenerations();

    // Sweep the nursery only, compacting survivors in place; survivors
    // are thereby promoted (youngStart_ moves past them).
    const std::size_t oldCount = youngStart_;
    const std::uint64_t reclaimed = sweepFrom(youngStart_);
    youngStart_ = cells_.size();
    const std::uint64_t promoted = youngStart_ - oldCount;
    promotedSinceMajor_ += promoted;
    stats_.cellsPromoted += promoted;
    ++stats_.minorCollections;
    return reclaimed;
  }

  std::uint64_t collectMajor() {
    // Full stop-the-world mark-sweep over the whole registry; afterwards
    // everything surviving is old and the remembered set is empty.
    markFromRoots();
    resetGenerations();
    const std::uint64_t reclaimed = sweepFrom(0);
    youngStart_ = cells_.size();
    promotedSinceMajor_ = 0;
    return reclaimed;
  }

  std::size_t youngStart_ = 0;  ///< cells_[youngStart_..) is the nursery
  std::vector<std::uint8_t> gen_;    ///< per cell: kYoung | kRemembered
  std::vector<CellRef> remembered_;  ///< old cells holding young pointers
  std::uint64_t promotedSinceMajor_ = 0;
  bool forceMajor_ = false;
};

}  // namespace

std::unique_ptr<Collector> makeGenerationalCollector(
    heap::HeapBackend& heap, const Collector::Options& options) {
  return std::make_unique<GenerationalCollector>(heap, options);
}

}  // namespace small::gc
