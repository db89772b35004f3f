#include "gc/collector.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace small::gc {

const char* policyName(Policy policy) {
  switch (policy) {
    case Policy::kNone:
      return "refcount";
    case Policy::kMarkSweep:
      return "mark-sweep";
    case Policy::kSemispace:
      return "semispace";
    case Policy::kDeferredRc:
      return "deferred-rc";
    case Policy::kGenerational:
      return "generational";
    case Policy::kIncremental:
      return "incremental";
  }
  return "unknown";
}

void Collector::whitenAll() {
  if (++markCycle_ == 0) {  // the cycle number wrapped: clear stale marks
    std::fill(marks_.begin(), marks_.end(), 0u);
    markCycle_ = 1;
  }
  if (marks_.size() < heap_.cellsAllocated()) {
    marks_.resize(heap_.cellsAllocated(), 0u);
  }
  gray_.clear();
}

std::uint64_t Collector::sweepRegistry(Sweep& sweep, std::uint64_t budget) {
  std::uint64_t reclaimed = 0;
  while (!sweep.done() && (budget == 0 || sliceCost() < budget)) {
    const CellRef cell = cells_[sweep.pos++];
    ++stats_.tableTouches;
    if (isMarked(cell)) {
      cells_[sweep.out++] = cell;
    } else {
      heap_.free(cell);
      ++reclaimed;
    }
  }
  if (sweep.done()) {
    cells_.erase(cells_.begin() + static_cast<std::ptrdiff_t>(sweep.out),
                 cells_.begin() + static_cast<std::ptrdiff_t>(sweep.limit));
  }
  return reclaimed;
}

std::uint64_t Collector::reachableFrom(CellRef cell) const {
  if (cell == kNull) return 0;
  // The fingerprint walk is read-only; restoring the stats snapshot keeps
  // reported backend activity identical whether or not it was taken.
  const heap::HeapStats statsBefore = heap_.stats();
  std::vector<std::uint8_t> seen;
  std::vector<CellRef> work;
  std::uint64_t count = 0;
  const auto visit = [&](CellRef next) {
    coverCell(seen, next);
    if (seen[next] != 0) return;
    seen[next] = 1;
    ++count;
    work.push_back(next);
  };
  visit(cell);
  while (!work.empty()) {
    const CellRef current = work.back();
    work.pop_back();
    for (const heap::HeapWord word :
         {heap_.car(current), heap_.cdr(current)}) {
      if (word.isPointer()) visit(word.payload);
    }
  }
  heap_.restoreStats(statsBefore);
  return count;
}

std::vector<std::uint64_t> Collector::rootReachability() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(roots_.size());
  for (const CellRef root : roots_) counts.push_back(reachableFrom(root));
  return counts;
}

std::unique_ptr<Collector> makeCollector(Policy policy,
                                         heap::HeapBackend& heap,
                                         const Collector::Options& options) {
  switch (policy) {
    case Policy::kMarkSweep:
      return makeMarkSweepCollector(heap, options);
    case Policy::kSemispace:
      return makeSemispaceCollector(heap, options);
    case Policy::kDeferredRc:
      return makeDeferredRcCollector(heap, options);
    case Policy::kGenerational:
      return makeGenerationalCollector(heap, options);
    case Policy::kIncremental:
      return makeIncrementalCollector(heap, options);
    case Policy::kNone:
      break;
  }
  throw support::Error("makeCollector: policy has no collector");
}

}  // namespace small::gc
