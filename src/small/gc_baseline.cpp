#include "small/gc_baseline.hpp"

#include <vector>

#include "support/error.hpp"

namespace small::core {

using support::SimulationError;

namespace {

std::uint64_t reachableEntries(const Lpt& lpt, EntryId root) {
  if (root == kNoEntry) return 0;
  std::vector<bool> seen(lpt.size());
  std::vector<EntryId> work;
  std::uint64_t count = 0;
  const auto visit = [&](EntryId id) {
    if (id >= seen.size()) throw SimulationError("Lpt: bad entry id");
    if (seen[id]) return;
    seen[id] = true;
    ++count;
    work.push_back(id);
  };
  visit(root);
  while (!work.empty()) {
    const LptEntry& entry = lpt.entry(work.back());
    work.pop_back();
    for (const EntryId child : {entry.car, entry.cdr}) {
      if (child != kNoEntry) visit(child);
    }
  }
  return count;
}

}  // namespace

GcBaselineResult runScriptOnLpt(const gc::Script& script) {
  // Size for the worst case: under the lazy policy a freed entry is only
  // reusable after it is popped, so the in-use+free-stack population can
  // transiently approach the total allocation count.
  const std::uint64_t bound = script.allocationBound() + 16;
  Lpt lpt(static_cast<std::uint32_t>(bound), ReclaimPolicy::kLazy);
  std::vector<EntryId> roots(script.slots, kNoEntry);

  const auto setSlot = [&](std::uint16_t slot, EntryId id) {
    if (id != kNoEntry) lpt.incRef(id);
    const EntryId old = roots[slot];
    roots[slot] = id;
    if (old != kNoEntry) lpt.decRef(old);
  };
  const auto consEntry = [&](EntryId car, EntryId cdr) {
    const EntryId id = lpt.allocate();
    if (id == kNoEntry) {
      throw SimulationError("runScriptOnLpt: table exhausted");
    }
    LptEntry& entry = lpt.entry(id);
    entry.car = car;
    entry.cdr = cdr;
    if (car != kNoEntry) lpt.incRef(car);
    if (cdr != kNoEntry) lpt.incRef(cdr);
    return id;
  };

  for (const gc::ScriptOp& op : script.ops) {
    switch (op.kind) {
      case gc::ScriptOp::Kind::kNewList: {
        EntryId spine = kNoEntry;
        for (std::uint16_t k = 0; k < op.length; ++k) {
          const bool shared = op.share > 0 && k > 0 && k % op.share == 0;
          spine = consEntry(shared ? spine : kNoEntry, spine);
        }
        setSlot(op.dst, spine);
        break;
      }
      case gc::ScriptOp::Kind::kCar:
      case gc::ScriptOp::Kind::kCdr: {
        const EntryId cell = roots[op.a];
        EntryId target = kNoEntry;
        if (cell != kNoEntry) {
          const LptEntry& entry = lpt.entry(cell);
          target = op.kind == gc::ScriptOp::Kind::kCar ? entry.car
                                                       : entry.cdr;
        }
        setSlot(op.dst, target);
        break;
      }
      case gc::ScriptOp::Kind::kCons:
        setSlot(op.dst, consEntry(roots[op.a], roots[op.b]));
        break;
      case gc::ScriptOp::Kind::kSetCar:
      case gc::ScriptOp::Kind::kSetCdr: {
        const EntryId cell = roots[op.a];
        if (cell == kNoEntry) break;
        LptEntry& entry = lpt.entry(cell);
        EntryId& field =
            op.kind == gc::ScriptOp::Kind::kSetCar ? entry.car : entry.cdr;
        const EntryId old = field;
        const EntryId added = roots[op.b];
        field = added;
        if (added != kNoEntry) lpt.incRef(added);
        if (old != kNoEntry) lpt.decRef(old);
        break;
      }
      case gc::ScriptOp::Kind::kCopy:
        setSlot(op.dst, roots[op.a]);
        break;
      case gc::ScriptOp::Kind::kClear:
        setSlot(op.dst, kNoEntry);
        break;
    }
  }

  GcBaselineResult result;
  result.lazySettled = lpt.settleLazyFrees();
  std::vector<EntryId> liveRoots;
  for (const EntryId id : roots) {
    if (id != kNoEntry) liveRoots.push_back(id);
  }
  result.cycleReclaimed = lpt.recoverCycles(liveRoots);
  result.finalLiveEntries = lpt.inUseCount();
  result.rootReachable.reserve(roots.size());
  for (const EntryId id : roots) {
    result.rootReachable.push_back(reachableEntries(lpt, id));
  }
  result.lptStats = lpt.stats();
  return result;
}

}  // namespace small::core
