#include "small/lpt.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace small::core {

using support::SimulationError;

Lpt::Lpt(std::uint32_t size, ReclaimPolicy reclaim)
    : size_(size),
      reclaim_(reclaim),
      flags_((static_cast<std::uint64_t>(size) + 7) & ~std::uint64_t{7}, 0),
      freeTop_(kNoEntry) {
  if (size == 0) throw SimulationError("Lpt: zero-sized table");
  // Reserved, not filled: allocate() constructs entries at the high-water
  // mark, and the reservation keeps references stable as it grows.
  entries_.reserve(size);
}

LptEntry& Lpt::entry(EntryId id) {
  if (id >= size_) throw SimulationError("Lpt: bad entry id");
  // A write access above the storage materializes fresh (free) entries
  // but leaves the high-water mark, and so the allocation order, alone.
  if (id >= entries_.size()) entries_.resize(id + 1);
  return entries_[id];
}

const LptEntry& Lpt::entry(EntryId id) const {
  if (id >= size_) throw SimulationError("Lpt: bad entry id");
  static const LptEntry kNeverAllocated{};
  return id < entries_.size() ? entries_[id] : kNeverAllocated;
}

EntryId Lpt::nextInUse(EntryId from) const {
  if (from >= size_) return kNoEntry;
  const std::uint8_t* bytes = flags_.data();
  std::uint64_t i = from;
  // Byte-scan to the next word boundary (padding bytes are always zero),
  // then skip eight entries at a time through empty words.
  while ((i & 7) != 0) {
    if (bytes[i] & kFlagInUse) return static_cast<EntryId>(i);
    ++i;
  }
  const std::uint64_t words = flags_.size() / 8;
  for (std::uint64_t w = i / 8; w < words; ++w) {
    std::uint64_t word;
    std::memcpy(&word, bytes + w * 8, 8);
    word &= 0x0101010101010101ull * kFlagInUse;
    if (word != 0) {
      const auto byte = static_cast<std::uint64_t>(std::countr_zero(word)) / 8;
      return static_cast<EntryId>(w * 8 + byte);
    }
  }
  return kNoEntry;
}

void Lpt::linkInUse(EntryId id) {
  LptEntry& slot = entries_[id];
  slot.inUsePrev = kNoEntry;
  slot.inUseNext = inUseHead_;
  if (inUseHead_ != kNoEntry) entries_[inUseHead_].inUsePrev = id;
  inUseHead_ = id;
}

void Lpt::unlinkInUse(EntryId id) {
  LptEntry& slot = entries_[id];
  if (slot.inUsePrev != kNoEntry) {
    entries_[slot.inUsePrev].inUseNext = slot.inUseNext;
  } else {
    inUseHead_ = slot.inUseNext;
  }
  if (slot.inUseNext != kNoEntry) {
    entries_[slot.inUseNext].inUsePrev = slot.inUsePrev;
  }
  slot.inUsePrev = kNoEntry;
  slot.inUseNext = kNoEntry;
}

EntryId Lpt::allocate() {
  // The free stack first, then the next never-allocated id: the order an
  // eagerly threaded stack with low ids on top would give.
  EntryId id;
  if (freeTop_ != kNoEntry) {
    id = freeTop_;
    freeTop_ = entries_[id].freeNext;
  } else if (highWater_ < size_) {
    id = highWater_++;
    if (id == entries_.size()) entries_.emplace_back();
  } else {
    return kNoEntry;
  }
  LptEntry& slot = entries_[id];

  // Lazy child decrement: the previous occupant's edges are released only
  // now that the entry is being reused (§4.3.2.1).
  const EntryId oldCar = slot.car;
  const EntryId oldCdr = slot.cdr;
  slot = LptEntry{};
  slot.inUse = true;
  flags_[id] = kFlagInUse;
  linkInUse(id);
  ++inUseCount_;
  ++stats_.gets;
  if (oldCar != kNoEntry) {
    ++stats_.lazyDecrements;
    decRef(oldCar);
  }
  if (oldCdr != kNoEntry) {
    ++stats_.lazyDecrements;
    decRef(oldCdr);
  }
  return id;
}

void Lpt::incRef(EntryId id) {
  LptEntry& slot = entry(id);
  if (!slot.inUse) throw SimulationError("Lpt: incRef of free entry");
  ++slot.refCount;
  ++stats_.refOps;
  stats_.maxRefCount = std::max(stats_.maxRefCount, slot.refCount);
  slot.lifetimeMaxCount = std::max(slot.lifetimeMaxCount, slot.refCount);
}

void Lpt::decRef(EntryId id) {
  LptEntry& slot = entry(id);
  if (!slot.inUse) throw SimulationError("Lpt: decRef of free entry");
  if (slot.refCount == 0) throw SimulationError("Lpt: refcount underflow");
  --slot.refCount;
  ++stats_.refOps;
  if (slot.refCount == 0 && !slot.stackBit) freeEntry(id);
}

void Lpt::setStackBit(EntryId id, bool value) {
  LptEntry& slot = entry(id);
  if (!slot.inUse) throw SimulationError("Lpt: stack bit on free entry");
  if (slot.stackBit == value) return;
  slot.stackBit = value;
  // Setting the bit piggybacks on the LP operation that returned the
  // value to the EP; only the clearing transition is an extra EP->LP
  // message ("Only when one of those counts goes to zero need the LP be
  // informed", §5.2.4).
  if (!value) {
    ++stats_.stackBitMessages;
    if (slot.refCount == 0) freeEntry(id);
  }
}

void Lpt::freeEntry(EntryId id) {
  LptEntry& slot = entries_[id];
  lifetimeMaxCounts_.add(slot.lifetimeMaxCount);
  slot.lifetimeMaxCount = 0;
  slot.inUse = false;
  slot.stackBit = false;
  flags_[id] = 0;
  unlinkInUse(id);
  --inUseCount_;
  ++stats_.frees;
  if (reclaim_ == ReclaimPolicy::kRecursive) {
    dropChildren(id);
  }
  // Under the lazy policy the children stay referenced until reuse; the
  // entry is pushed intact.
  slot.freeNext = freeTop_;
  freeTop_ = id;
}

void Lpt::dropChildren(EntryId id) {
  LptEntry& slot = entries_[id];
  const EntryId oldCar = slot.car;
  const EntryId oldCdr = slot.cdr;
  slot.car = kNoEntry;
  slot.cdr = kNoEntry;
  if (oldCar != kNoEntry) decRef(oldCar);
  if (oldCdr != kNoEntry) decRef(oldCdr);
}

std::uint64_t Lpt::settleLazyFrees() {
  // Releasing a free entry's edges can drive other counts to zero, which
  // frees more entries — whose edges are retained in turn under the lazy
  // policy — so the scan repeats until no free entry holds an edge. The
  // ascending fixpoint scan is load-bearing: it fixes the order entries
  // are pushed back onto the free stack, hence the ids later allocations
  // hand out.
  std::uint64_t released = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (EntryId id = 0; id < highWater_; ++id) {
      if (flags_[id] & kFlagInUse) continue;
      LptEntry& slot = entries_[id];
      if (slot.car == kNoEntry && slot.cdr == kNoEntry) continue;
      const EntryId oldCar = slot.car;
      const EntryId oldCdr = slot.cdr;
      slot.car = kNoEntry;
      slot.cdr = kNoEntry;
      if (oldCar != kNoEntry) {
        ++stats_.lazyDecrements;
        ++released;
        decRef(oldCar);
      }
      if (oldCdr != kNoEntry) {
        ++stats_.lazyDecrements;
        ++released;
        decRef(oldCdr);
      }
      progress = true;
    }
  }
  return released;
}

std::uint64_t Lpt::recoverCycles(const std::vector<EntryId>& roots) {
  // Mark phase: everything reachable from an external root stays. Stale
  // marks only ever live on in-use entries (freeing clears the flag byte),
  // so clearing them walks the intrusive list — O(in-use), not O(table).
  forEachInUseUnordered([this](EntryId id) { clearMark(id); });
  std::vector<EntryId> work = roots;
  // Entries on the free stack still hold deferred (lazy) references
  // through their car/cdr fields until reuse, so those edges are roots as
  // well; the stack is exactly the free set, so walk it — O(free).
  for (EntryId id = freeTop_; id != kNoEntry; id = entries_[id].freeNext) {
    const LptEntry& slot = entries_[id];
    if (slot.car != kNoEntry) work.push_back(slot.car);
    if (slot.cdr != kNoEntry) work.push_back(slot.cdr);
  }
  while (!work.empty()) {
    const EntryId id = work.back();
    work.pop_back();
    if (id == kNoEntry) continue;
    LptEntry& slot = entry(id);
    if (!slot.inUse || marked(id)) continue;
    setMark(id);
    if (slot.car != kNoEntry) work.push_back(slot.car);
    if (slot.cdr != kNoEntry) work.push_back(slot.cdr);
  }
  // Sweep phase: in-use unmarked entries form unreferenced cycles. Edges
  // from a swept entry into a *surviving* entry must release their count;
  // edges into fellow swept entries are simply severed. The ascending
  // order (via the packed flags) matches the free-stack push order the
  // rest of the simulation depends on. A marked survivor always retains
  // at least the counted edge along its marking path — no edge on that
  // path is swept — so the decRefs here can never free one mid-sweep.
  std::uint64_t reclaimed = 0;
  for (EntryId id = firstInUse(); id != kNoEntry; id = nextInUse(id + 1)) {
    if (marked(id)) continue;
    LptEntry& slot = entries_[id];
    const EntryId oldCar = slot.car;
    const EntryId oldCdr = slot.cdr;
    slot.car = kNoEntry;
    slot.cdr = kNoEntry;
    slot.refCount = 0;
    slot.stackBit = false;
    freeEntry(id);
    ++reclaimed;
    if (oldCar != kNoEntry && marked(oldCar)) decRef(oldCar);
    if (oldCdr != kNoEntry && marked(oldCdr)) decRef(oldCdr);
  }
  return reclaimed;
}

}  // namespace small::core
