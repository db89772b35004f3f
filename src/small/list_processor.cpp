#include "small/list_processor.hpp"

#include <algorithm>

namespace small::core {

using support::SimulationError;

ListProcessor::ListProcessor(const SimConfig& config, support::Rng& rng)
    : config_(config),
      rng_(rng),
      lpt_(config.tableSize, config.reclaim),
      epRefs_(config.tableSize) {}

void ListProcessor::epIncrement(EntryId id) {
  const std::uint32_t count = epRefs_.increment(id);
  ++stats_.epRefOps;
  stats_.epMaxRefCount = std::max(stats_.epMaxRefCount, count);
  if (config_.splitRefCounts && count == 1) {
    lpt_.setStackBit(id, true);
  }
}

void ListProcessor::epDecrement(EntryId id) {
  const std::uint32_t count = epRefs_.decrement(id);
  ++stats_.epRefOps;
  if (count == 0 && config_.splitRefCounts) lpt_.setStackBit(id, false);
}

void ListProcessor::returnRef(EntryId id) {
  // In base mode every EP reference is also counted in the LPT; in split
  // mode only the EP-side table changes (plus a StackBit message on the
  // 0 -> 1 transition).
  if (!config_.splitRefCounts) lpt_.incRef(id);
  epIncrement(id);
}

void ListProcessor::bind(EntryId id) { returnRef(id); }

void ListProcessor::unbind(EntryId id) {
  epDecrement(id);
  if (!config_.splitRefCounts) lpt_.decRef(id);
}

AccessResult ListProcessor::largeAccess(bool wantCar) {
  (void)wantCar;
  ++stats_.overflowModeOps;
  AccessResult result;
  result.id = kNoEntry;
  result.isAtom = rng_.chance(0.35);
  if (!result.isAtom) ++overflowOutstanding_;
  return result;
}

void ListProcessor::largeUnbind() {
  if (overflowOutstanding_ == 0) {
    throw SimulationError("ListProcessor: large-reference underflow");
  }
  --overflowOutstanding_;
}

bool ListProcessor::ensureFree(std::uint32_t needed) {
  while (lpt_.size() - lpt_.inUseCount() < needed) {
    bool all = config_.compression == CompressionPolicy::kCompressAll;
    if (config_.compression == CompressionPolicy::kHybrid) {
      if (opCounter_ - windowStart_ > config_.hybridWindow) {
        windowStart_ = opCounter_;
        pseudoInWindow_ = 0;
      }
      ++pseudoInWindow_;
      all = pseudoInWindow_ >= config_.hybridThreshold;
    }
    const std::uint64_t merged = compress(all);
    if (merged > 0) {
      ++stats_.pseudoOverflows;
      continue;
    }
    ++stats_.trueOverflows;
    ++stats_.cycleRecoveries;
    const std::uint64_t reclaimed = lpt_.recoverCycles(externalRoots());
    stats_.cycleEntriesReclaimed += reclaimed;
    if (reclaimed == 0) return false;
  }
  return true;
}

EntryId ListProcessor::allocateEntry() {
  if (!ensureFree(1)) return kNoEntry;
  return lpt_.allocate();
}

bool ListProcessor::compressiblePair(EntryId parent, EntryId* carChild,
                                     EntryId* cdrChild) const {
  const LptEntry& p = lpt_.entry(parent);
  if (!p.inUse || p.car == kNoEntry || p.cdr == kNoEntry) return false;
  auto mergeable = [&](EntryId childId) {
    const LptEntry& child = lpt_.entry(childId);
    return child.inUse && child.refCount == 1 && !child.stackBit &&
           externalRefs(childId) == 0 && child.car == kNoEntry &&
           child.cdr == kNoEntry && child.hasAddr;
  };
  if (p.car == p.cdr) return false;  // shared child carries two references
  if (!mergeable(p.car) || !mergeable(p.cdr)) return false;
  *carChild = p.car;
  *cdrChild = p.cdr;
  return true;
}

void ListProcessor::mergePair(EntryId parent, EntryId carChild,
                              EntryId cdrChild) {
  // Heap merge: a fresh cell pointing at the two halves (§4.3.3.2).
  const std::uint64_t merged = heap_.allocateObject(1);
  LptEntry& p = lpt_.entry(parent);
  p.addr = merged;
  p.cacheAddr = merged;
  p.hasAddr = true;
  p.car = kNoEntry;
  p.cdr = kNoEntry;
  lpt_.decRef(carChild);  // the parent's field references go away
  lpt_.decRef(cdrChild);
  ++stats_.merges;
}

std::uint64_t ListProcessor::compress(bool all) {
  // Ascending in-use scan via the Lpt's packed flag bytes: O(in-use)
  // entries touched per pass instead of O(table). The ascending order is
  // what keeps Compress-One merge sequences deterministic.
  std::uint64_t merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (EntryId id = lpt_.firstInUse(); id != kNoEntry;
         id = lpt_.nextInUse(id + 1)) {
      EntryId carChild = kNoEntry;
      EntryId cdrChild = kNoEntry;
      if (!compressiblePair(id, &carChild, &cdrChild)) continue;
      mergePair(id, carChild, cdrChild);
      ++merges;
      if (!all) return merges;  // Compress-One: immediate need met
      progress = true;
    }
  }
  return merges;
}

ListProcessor::Decomposition ListProcessor::decompose(const LptEntry& parent) {
  Decomposition d;
  const std::uint32_t n = parent.n;
  const std::uint32_t p = parent.p;
  const std::uint32_t weight = n + p;
  if (weight == 0) {
    d.carIsAtom = true;
    d.cdrIsNil = true;
    return d;
  }
  const bool firstIsAtom = p == 0 || rng_.below(weight) < n;
  std::uint32_t restN = n;
  std::uint32_t restP = p;
  if (firstIsAtom) {
    d.carIsAtom = true;
    restN = n > 0 ? n - 1 : 0;
  } else {
    d.carP = static_cast<std::uint32_t>(rng_.below(p));
    d.carN = 1 + static_cast<std::uint32_t>(
                     rng_.below(std::max<std::uint32_t>(n / 2, 1)));
    d.carN = std::min(d.carN, n);
    restN = n - d.carN;
    restP = p - std::min(p, d.carP + 1);
  }
  d.cdrN = restN;
  d.cdrP = restP;
  d.cdrIsNil = restN + restP == 0;
  return d;
}

bool ListProcessor::split(EntryId id) {
  // Two fresh entries are needed; make room before touching the parent so
  // a failed allocation can never leave a half-split object.
  if (!ensureFree(2)) return false;

  const Decomposition d = decompose(lpt_.entry(id));
  const std::uint64_t parentAddr = lpt_.entry(id).addr;
  const std::uint64_t parentCacheAddr = lpt_.entry(id).cacheAddr;

  const EntryId carId = lpt_.allocate();
  const EntryId cdrId = lpt_.allocate();
  if (carId == kNoEntry || cdrId == kNoEntry) {
    throw SimulationError("ListProcessor: split allocation failed");
  }

  LptEntry& carEntry = lpt_.entry(carId);
  carEntry.isAtom = d.carIsAtom;
  carEntry.n = d.carN;
  carEntry.p = d.carP;
  carEntry.addr = heap_.childAddress(parentAddr, rng_);
  carEntry.cacheAddr = heap_.childAddress(parentCacheAddr, rng_);
  carEntry.hasAddr = true;
  carEntry.refCount = 1;  // referenced by the parent's car field

  LptEntry& cdrEntry = lpt_.entry(cdrId);
  cdrEntry.isAtom = d.cdrIsNil;
  cdrEntry.n = d.cdrN;
  cdrEntry.p = d.cdrP;
  cdrEntry.addr = heap_.childAddress(parentAddr, rng_);
  cdrEntry.cacheAddr = heap_.childAddress(parentCacheAddr, rng_);
  cdrEntry.hasAddr = true;
  cdrEntry.refCount = 1;

  LptEntry& parent = lpt_.entry(id);
  parent.car = carId;
  parent.cdr = cdrId;
  parent.hasAddr = false;  // the heap cell was consumed by the split
  ++stats_.heapFrees;
  ++stats_.splits;
  return true;
}

AccessResult ListProcessor::access(EntryId id, bool wantCar) {
  notePrimitive();
  const LptEntry& slot = lpt_.entry(id);
  if (!slot.inUse) throw SimulationError("ListProcessor: access free entry");
  if (slot.isAtom) throw SimulationError("ListProcessor: car/cdr of atom");

  const EntryId cached = wantCar ? slot.car : slot.cdr;
  if (cached != kNoEntry) {
    ++stats_.hits;
    AccessResult result;
    result.id = cached;
    result.isAtom = lpt_.entry(cached).isAtom;
    result.lptHit = true;
    returnRef(cached);
    return result;
  }

  // Miss: the heap object must be split (Fig 4.5).
  if (!split(id)) {
    return largeAccess(wantCar);  // bypass mode (§4.3.2.3)
  }
  const LptEntry& after = lpt_.entry(id);
  const EntryId child = wantCar ? after.car : after.cdr;
  AccessResult result;
  result.id = child;
  result.isAtom = lpt_.entry(child).isAtom;
  result.lptHit = false;
  returnRef(child);
  return result;
}

void ListProcessor::modify(EntryId target, EntryId value, bool isCar) {
  notePrimitive();
  {
    const LptEntry& slot = lpt_.entry(target);
    if (slot.isAtom) {
      throw SimulationError("ListProcessor: rplac on an atom");
    }
    const EntryId field = isCar ? slot.car : slot.cdr;
    if (field == kNoEntry && !split(target)) {
      // Bypass mode: the modification happens directly in the heap.
      ++stats_.overflowModeOps;
      return;
    }
  }
  LptEntry& slot = lpt_.entry(target);
  const EntryId old = isCar ? slot.car : slot.cdr;
  if (isCar) {
    slot.car = value;
  } else {
    slot.cdr = value;
  }
  lpt_.incRef(value);
  if (old != kNoEntry) lpt_.decRef(old);
  ++stats_.modifies;
}

EntryId ListProcessor::cons(EntryId head, EntryId tail) {
  notePrimitive();
  const EntryId id = allocateEntry();
  if (id == kNoEntry) {
    ++stats_.overflowModeOps;
    ++overflowOutstanding_;
    return kNoEntry;
  }
  LptEntry& z = lpt_.entry(id);
  z.car = head;
  z.cdr = tail;
  lpt_.incRef(head);
  lpt_.incRef(tail);
  // Combined shape: head becomes the first element, tail the rest.
  const LptEntry& h = lpt_.entry(head);
  const LptEntry& t = lpt_.entry(tail);
  z.n = (h.isAtom ? 1 : h.n) + (t.isAtom ? 0 : t.n);
  z.p = (h.isAtom ? 0 : h.p + 1) + (t.isAtom ? 0 : t.p);
  z.cacheAddr = heap_.allocateObject(1);  // the conventional cell write
  returnRef(id);
  return id;
}

EntryId ListProcessor::readList(std::optional<EntryId> previous,
                                std::uint32_t n, std::uint32_t p) {
  notePrimitive();
  if (previous) unbind(*previous);
  const EntryId id = allocateEntry();
  if (id == kNoEntry) {
    ++stats_.overflowModeOps;
    ++overflowOutstanding_;
    return kNoEntry;
  }
  LptEntry& slot = lpt_.entry(id);
  slot.n = n;
  slot.p = p;
  slot.isAtom = n + p == 0;
  const std::uint32_t sizeCells = std::max<std::uint32_t>(n + p, 1);
  slot.addr = heap_.allocateObject(sizeCells);
  slot.cacheAddr = slot.addr;
  slot.hasAddr = true;
  returnRef(id);
  return id;
}

EntryId ListProcessor::copy(EntryId id) {
  notePrimitive();
  const LptEntry source = lpt_.entry(id);
  const EntryId fresh = allocateEntry();
  if (fresh == kNoEntry) {
    ++stats_.overflowModeOps;
    ++overflowOutstanding_;
    return kNoEntry;
  }
  LptEntry& slot = lpt_.entry(fresh);
  slot.n = source.n;
  slot.p = source.p;
  slot.isAtom = source.isAtom;
  const std::uint32_t sizeCells =
      std::max<std::uint32_t>(source.n + source.p, 1);
  slot.addr = heap_.allocateObject(sizeCells);
  slot.cacheAddr = slot.addr;
  slot.hasAddr = true;
  returnRef(fresh);
  return fresh;
}

}  // namespace small::core
