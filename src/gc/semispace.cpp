// Semispace copying collection (Cheney's algorithm) over the registry.
// Live cells are evacuated breadth-first into fresh to-space cells from
// the same backend; a forwarding table maps old refs to clones, to-space
// addresses are assigned through heap::AddressModel's bump counter (the
// §5.2.5 address discipline), and the scan pass rewrites every copied
// pointer word through the table. From-space — the entire old registry,
// survivors' husks and garbage alike — is then freed, so reclamation cost
// is proportional to the live set plus a free per old cell, and the
// survivors end up compact in both registry order and simulated address
// space.
//
// Moving invalidates old CellRefs: the mutator must re-read its roots
// from the root slots after every collection.
#include "gc/collector.hpp"
#include "heap/address_model.hpp"

namespace small::gc {
namespace {

class SemispaceCollector final : public Collector {
 public:
  using Collector::Collector;

  const char* name() const override { return "semispace"; }

 protected:
  std::uint64_t doCollect() override {
    forward_.assign(heap_.cellsAllocated(), kNull);
    std::vector<CellRef> copies;  // to-space registry; doubles as scan queue

    // Evacuate: copy on first contact, answer from the forwarding table
    // after (one metadata touch per contact, one more per new entry).
    const auto evacuate = [&](CellRef old) {
      ++stats_.tableTouches;
      coverCell(forward_, old, kNull);
      if (forward_[old] != kNull) return forward_[old];
      const CellRef clone = heap_.allocate(heap_.car(old), heap_.cdr(old));
      toSpace_.allocateObject(1);
      ++stats_.tableTouches;
      forward_[old] = clone;
      copies.push_back(clone);
      ++stats_.cellsTraced;
      return clone;
    };

    for (CellRef& root : roots_) {
      if (root != kNull) root = evacuate(root);
    }

    // Scan: clones still hold from-space pointer words; rewrite each
    // through the forwarding table, evacuating targets on first contact
    // (which grows the queue — the Cheney wavefront).
    for (std::size_t scan = 0; scan < copies.size(); ++scan) {
      const CellRef clone = copies[scan];
      const heap::HeapWord carWord = heap_.car(clone);
      if (carWord.isPointer()) {
        heap_.setCar(clone, heap::HeapWord::pointer(evacuate(carWord.payload)));
      }
      const heap::HeapWord cdrWord = heap_.cdr(clone);
      if (cdrWord.isPointer()) {
        heap_.setCdr(clone, heap::HeapWord::pointer(evacuate(cdrWord.payload)));
      }
    }

    // Discard from-space wholesale; only the copies survive.
    const std::uint64_t oldCount = cells_.size();
    for (const CellRef cell : cells_) heap_.free(cell);
    cells_ = std::move(copies);
    return oldCount - cells_.size();
  }

 private:
  /// Simulated to-space address assignment (monotonic across flips).
  heap::AddressModel toSpace_;
  /// Forwarding table, dense over from-space CellRefs (kNull = not yet
  /// copied); rebuilt at every collection.
  std::vector<CellRef> forward_;
};

}  // namespace

std::unique_ptr<Collector> makeSemispaceCollector(
    heap::HeapBackend& heap, const Collector::Options& options) {
  return std::make_unique<SemispaceCollector>(heap, options);
}

}  // namespace small::gc
