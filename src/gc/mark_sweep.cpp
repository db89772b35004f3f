// Stop-the-world mark-sweep over the collector's cell registry: the
// shared mark engine (gc/collector.hpp) run to completion in one pause.
// Marking traces from the root slots through the backend's virtual
// car/cdr (so each representation pays its own touch profile); the sweep
// walks the registry in insertion order and frees unmarked cells, which
// keeps the surviving registry order — and therefore every downstream
// report — deterministic.
#include "gc/collector.hpp"

namespace small::gc {
namespace {

class MarkSweepCollector final : public Collector {
 public:
  using Collector::Collector;

  const char* name() const override { return "mark-sweep"; }

 protected:
  std::uint64_t doCollect() override {
    markFromRoots();
    return sweepFrom(0);
  }
};

}  // namespace

std::unique_ptr<Collector> makeMarkSweepCollector(
    heap::HeapBackend& heap, const Collector::Options& options) {
  return std::make_unique<MarkSweepCollector>(heap, options);
}

}  // namespace small::gc
