// The List Processor Table (§4.3.2, Fig 4.2).
//
// Each entry is an (identifier, car, cdr, refcount, address, mark) tuple.
// The identifier is the entry's index — the short name the EP uses for list
// objects. The car/cdr fields cache computed access edges; the address
// field maps to heap memory; the reference count manages both the entry's
// own lifetime and, transitively, the heap object's.
//
// Free entries form a LIFO stack threaded through the entries' `freeNext`
// field (Fig 4.3), so both freeing and allocation are O(1). The table is
// filled lazily: ids at or above a high-water mark have never been
// allocated, are free by definition and sit below every freed id, so
// allocate() pops the stack first and only then takes the mark — the order
// an eagerly threaded stack with low ids on top gives, without touching
// the whole table up front. When an entry's count reaches zero
// it is pushed intact — its children are decremented only when the entry is
// reallocated (§4.3.2.1's lazy policy), bounding the work per free at the
// price of transiently occupied child entries. The recursive policy
// (immediate child decrement) is selectable for the Table 5.2 comparison.
//
// Hot-path layout: alongside the entry array the table maintains
//   * a packed flag byte per entry (in-use + cycle-recovery mark bits),
//     scanned eight entries per 64-bit word — `firstInUse`/`nextInUse`
//     walk the live set in ascending id order touching one byte per
//     entry instead of the full LptEntry record, and
//   * an intrusive doubly linked in-use list (prev/next ids threaded
//     through the entries), giving O(in-use) iteration where visit order
//     does not matter (mark clearing, occupancy walks).
// Compression and cycle-recovery sweeps therefore touch O(in-use)
// entries, not O(table).
#pragma once

#include <cstdint>
#include <vector>

#include "small/config.hpp"
#include "support/stats.hpp"
#include "support/error.hpp"

namespace small::core {

/// Entry identifier: index into the LPT. `kNoEntry` = absent edge.
using EntryId = std::uint32_t;
inline constexpr EntryId kNoEntry = 0xffffffffu;

struct LptEntry {
  EntryId car = kNoEntry;  ///< cached car edge
  EntryId cdr = kNoEntry;  ///< cached cdr edge
  std::uint32_t refCount = 0;
  std::uint64_t addr = 0;  ///< heap address (meaningful when hasAddr)
  bool hasAddr = false;
  bool inUse = false;
  bool isAtom = false;     ///< atom object: cannot be split further
  bool stackBit = false;   ///< split-refcount mode: stack references exist

  // Modeled object shape, used to size splits (n symbols, p sublists).
  std::uint32_t n = 0;
  std::uint32_t p = 0;

  // Cache-comparison address of the two-pointer cell representing this
  // object in the conventional-memory shadow model (§5.2.5).
  std::uint64_t cacheAddr = 0;

  EntryId freeNext = kNoEntry;   ///< free-stack link
  EntryId inUsePrev = kNoEntry;  ///< intrusive in-use list links
  EntryId inUseNext = kNoEntry;

  /// Largest count this entry reached during its current lifetime — the
  /// input to the §2.3.4 truncated-count (M3L) study.
  std::uint32_t lifetimeMaxCount = 0;
};

/// Reference-count and allocation event counters (Tables 5.2 / 5.3).
struct LptStats {
  std::uint64_t refOps = 0;       ///< reference count increments+decrements
  std::uint64_t gets = 0;         ///< entry allocations
  std::uint64_t frees = 0;        ///< counts reaching zero
  std::uint64_t lazyDecrements = 0;  ///< child decrements deferred to reuse
  std::uint32_t maxRefCount = 0;  ///< largest count observed (field sizing)
  std::uint64_t stackBitMessages = 0;  ///< split mode: EP->LP bit updates
};

class Lpt {
 public:
  Lpt(std::uint32_t size, ReclaimPolicy reclaim);

  std::uint32_t size() const { return size_; }
  std::uint32_t inUseCount() const { return inUseCount_; }
  bool hasFreeEntry() const {
    return freeTop_ != kNoEntry || highWater_ < size_;
  }
  /// Ids at or above this have never been allocated: free, and holding
  /// no edges.
  std::uint32_t highWater() const { return highWater_; }

  /// Pop a free entry, lazily decrementing the previous occupant's
  /// children (which may cascade further frees under either policy).
  /// Returns kNoEntry if every entry is in use or awaiting reuse
  /// (overflow).
  EntryId allocate();

  /// Any id below size(); one never allocated reads as a fresh, free
  /// entry, and reading it does not change what allocate() hands out.
  LptEntry& entry(EntryId id);
  const LptEntry& entry(EntryId id) const;

  /// Increment/decrement an entry's count. Decrement to zero frees the
  /// entry (unless its StackBit is held in split-refcount mode).
  void incRef(EntryId id);
  void decRef(EntryId id);

  /// Split-refcount support: set/clear the stack bit; clearing frees the
  /// entry if its internal count is already zero.
  void setStackBit(EntryId id, bool value);

  /// Cycle recovery (§4.3.2.3): mark from the given roots through car/cdr
  /// edges, sweep unmarked in-use entries onto the free stack. Returns the
  /// number of entries reclaimed.
  std::uint64_t recoverCycles(const std::vector<EntryId>& roots);

  /// Perform every outstanding lazy child decrement now: free-stack
  /// entries keep their car/cdr edges referenced until reuse (§4.3.2.1),
  /// so the in-use set normally overshoots plain reachability. Settling
  /// runs those deferred decrements to a fixpoint, after which
  /// recoverCycles(roots) leaves *exactly* the root-reachable entries in
  /// use — the live-set ground truth the gc subsystem's differential
  /// comparison needs. Returns the number of deferred edges released.
  std::uint64_t settleLazyFrees();

  LptStats& stats() { return stats_; }
  const LptStats& stats() const { return stats_; }

  /// Distribution of per-entry lifetime maximum counts, sampled when each
  /// entry is freed. With k-bit *sticky* counters (M3L, §2.3.4) an entry
  /// is reclaimable iff its lifetime max never exceeded 2^k - 1, so this
  /// histogram's CDF is exactly the reclaimable fraction per width.
  const support::Histogram& lifetimeMaxCounts() const {
    return lifetimeMaxCounts_;
  }

  /// First in-use id >= `from` (ascending order), or kNoEntry. Scans the
  /// packed flag bytes eight entries per 64-bit word, so a sweep costs
  /// O(size/8 + visited) byte touches rather than O(size) entry loads.
  /// Safe against entries freed mid-iteration (the flag is re-read);
  /// callers must not allocate while iterating.
  EntryId nextInUse(EntryId from) const;
  EntryId firstInUse() const { return nextInUse(0); }

  /// Iterate in-use entry ids in ascending order (compression scans rely
  /// on this order — it is what keeps merge sequences deterministic).
  template <typename Fn>
  void forEachInUse(Fn&& fn) const {
    for (EntryId id = firstInUse(); id != kNoEntry; id = nextInUse(id + 1)) {
      fn(id);
    }
  }

  /// Iterate in-use entry ids in *unspecified* order via the intrusive
  /// in-use list: O(live entries) with no dependence on table size. The
  /// callback must not allocate or free entries.
  template <typename Fn>
  void forEachInUseUnordered(Fn&& fn) const {
    for (EntryId id = inUseHead_; id != kNoEntry;
         id = entries_[id].inUseNext) {
      fn(id);
    }
  }

 private:
  // Packed per-entry flag byte (scanned word-at-a-time by nextInUse).
  static constexpr std::uint8_t kFlagInUse = 0x01;
  static constexpr std::uint8_t kFlagMark = 0x02;

  bool marked(EntryId id) const { return (flags_[id] & kFlagMark) != 0; }
  void setMark(EntryId id) { flags_[id] |= kFlagMark; }
  void clearMark(EntryId id) { flags_[id] &= static_cast<std::uint8_t>(~kFlagMark); }

  void linkInUse(EntryId id);
  void unlinkInUse(EntryId id);

  void freeEntry(EntryId id);
  void dropChildren(EntryId id);  ///< decrement both children now

  std::uint32_t size_;
  ReclaimPolicy reclaim_;
  /// Reserved to size_; holds at least the ids below highWater_.
  std::vector<LptEntry> entries_;
  std::uint32_t highWater_ = 0;
  /// One flag byte per entry, zero-padded to a multiple of 8 so the
  /// word-at-a-time scan never reads past the table.
  std::vector<std::uint8_t> flags_;
  EntryId freeTop_;
  EntryId inUseHead_ = kNoEntry;
  std::uint32_t inUseCount_ = 0;
  LptStats stats_;
  support::Histogram lifetimeMaxCounts_;
};

}  // namespace small::core
