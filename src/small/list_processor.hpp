// The List Processor (§4.3.2): executes the EP's list-manipulating
// requests against the LPT and the (modeled) heap.
//
// Operations: readlist, car, cdr, rplaca, rplacd, cons, copy — plus the
// EP-side reference messages (bind/unbind) and overflow handling:
//   pseudo overflow -> compression (Fig 4.8 merges),
//   true overflow   -> cycle recovery, then overflow (bypass) mode
//                      (§4.3.2.3) with large-address accounting.
//
// The heap behind the LP is modeled at the fidelity of the thesis'
// simulator: objects have sizes drawn from the n/p shape carried on each
// entry, split-child addresses follow Clark's pointer-distance shape, and
// every entry also carries a conventional-memory "cache address" so the
// same operation stream can drive the §5.2.5 comparison cache.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "heap/address_model.hpp"
#include "small/config.hpp"
#include "small/lpt.hpp"
#include "small/ref_shadow.hpp"
#include "support/rng.hpp"

namespace small::core {

/// Result of a car/cdr request: either an LPT identifier (list or atom
/// object entry) or an immediate atom value (no entry allocated — used in
/// overflow mode and for nil results).
struct AccessResult {
  EntryId id = kNoEntry;
  bool isAtom = false;  ///< the object is an atom (entry may still exist)
  bool lptHit = false;  ///< satisfied from the car/cdr field (§5.2.5)
};

/// LP-level activity counters beyond the LptStats.
struct LpStats {
  std::uint64_t splits = 0;          ///< heap split requests (LPT misses)
  std::uint64_t hits = 0;            ///< car/cdr satisfied from the table
  std::uint64_t modifies = 0;        ///< rplaca/rplacd requests served
  std::uint64_t merges = 0;          ///< compression merges performed
  std::uint64_t pseudoOverflows = 0;
  std::uint64_t trueOverflows = 0;
  std::uint64_t cycleRecoveries = 0;
  std::uint64_t cycleEntriesReclaimed = 0;
  std::uint64_t overflowModeOps = 0;  ///< operations served in bypass mode
  std::uint64_t heapFrees = 0;        ///< heap objects handed back
  std::uint64_t epRefOps = 0;         ///< split mode: EP-side count updates
  std::uint32_t epMaxRefCount = 0;    ///< split mode: max EP-side count
};

class ListProcessor {
 public:
  ListProcessor(const SimConfig& config, support::Rng& rng);

  // --- list-manipulating primitives (§4.3.2.2) ---

  /// readlist: new list data enters the heap; returns the new identifier.
  /// `previous` (the variable's old binding) is dereferenced first.
  EntryId readList(std::optional<EntryId> previous, std::uint32_t n,
                   std::uint32_t p);

  AccessResult car(EntryId id) { return access(id, /*wantCar=*/true); }
  AccessResult cdr(EntryId id) { return access(id, /*wantCar=*/false); }

  void rplaca(EntryId target, EntryId value) {
    modify(target, value, /*isCar=*/true);
  }
  void rplacd(EntryId target, EntryId value) {
    modify(target, value, /*isCar=*/false);
  }

  /// cons: a new LPT entry; no heap activity (§4.3.2.2.4).
  EntryId cons(EntryId head, EntryId tail);

  /// copy: a fresh object with the same structure (call-by-value support).
  EntryId copy(EntryId id);

  // --- EP reference messages ---
  void bind(EntryId id);    ///< a stack/variable reference was created
  void unbind(EntryId id);  ///< a stack/variable reference went away

  // --- overflow (bypass) mode operations (§4.3.2.3) ---
  // When the LPT cannot supply an entry even after compression and cycle
  // recovery, results are "large" heap addresses held directly by the EP.
  // The LP counts outstanding large identifiers and returns to fast mode
  // when the count drops to zero.
  AccessResult largeAccess(bool wantCar);
  void largeBind() { ++overflowOutstanding_; }
  void largeUnbind();

  // --- introspection ---
  Lpt& lpt() { return lpt_; }
  const Lpt& lpt() const { return lpt_; }
  LpStats& stats() { return stats_; }
  const LpStats& stats() const { return stats_; }
  bool inOverflowMode() const { return overflowOutstanding_ > 0; }

  /// External (EP-held) reference count shadow — what the EP's stack
  /// holds; used to decide compressibility and as cycle-recovery roots.
  std::uint32_t externalRefs(EntryId id) const { return epRefs_.count(id); }

  /// Cache-model address of the two-pointer cell backing this entry.
  std::uint64_t cacheAddress(EntryId id) const {
    return lpt_.entry(id).cacheAddr;
  }

  /// Run one compression pass by hand (exposed for tests/benches).
  std::uint64_t compress(bool all);

  /// The cycle-recovery root set: every id the EP currently holds a
  /// reference to, in ascending EntryId order. O(live roots) — built from
  /// the incrementally maintained non-zero set, so the order (and every
  /// order-sensitive stat downstream) is independent of hash-table layout.
  std::vector<EntryId> externalRoots() const { return epRefs_.sortedIds(); }

 private:
  AccessResult access(EntryId id, bool wantCar);
  void modify(EntryId target, EntryId value, bool isCar);

  /// Advance the hybrid policy's notion of time. §4.3.3.2 windows are
  /// measured in elapsed primitive operations, so every primitive entry
  /// point ticks this — not just overflow attempts.
  void notePrimitive() { ++opCounter_; }

  /// Run the overflow ladder (compress -> cycle-recover) until at least
  /// `needed` entries are free; false means bypass mode is unavoidable.
  bool ensureFree(std::uint32_t needed);

  /// Allocate honoring the overflow protocol; kNoEntry on true overflow.
  EntryId allocateEntry();

  /// Split the heap object behind `id` into car/cdr entries (Fig 4.5).
  /// Returns false when the table cannot make room (bypass mode).
  bool split(EntryId id);

  /// Hand one reference on `id` to the EP, with the mode-appropriate
  /// reference accounting.
  void returnRef(EntryId id);

  /// Sample how the object's shape decomposes at its first cell.
  struct Decomposition {
    bool carIsAtom = false;
    std::uint32_t carN = 0, carP = 0;
    bool cdrIsNil = false;
    std::uint32_t cdrN = 0, cdrP = 0;
  };
  Decomposition decompose(const LptEntry& parent);

  bool compressiblePair(EntryId parent, EntryId* carChild,
                        EntryId* cdrChild) const;
  void mergePair(EntryId parent, EntryId carChild, EntryId cdrChild);

  // split-refcount mode helpers
  void epIncrement(EntryId id);
  void epDecrement(EntryId id);

  SimConfig config_;
  support::Rng& rng_;
  Lpt lpt_;
  heap::AddressModel heap_;
  LpStats stats_;

  // EP-side reference table. In base mode it is a shadow used only for
  // compressibility/root decisions; in split mode it is the real count.
  RefShadow epRefs_;

  // Overflow (bypass) mode: operations create "large address" objects in a
  // side table; the LP returns to fast mode when none remain outstanding.
  std::uint64_t overflowOutstanding_ = 0;

  // Hybrid compression policy state.
  std::uint64_t pseudoInWindow_ = 0;
  std::uint64_t windowStart_ = 0;
  std::uint64_t opCounter_ = 0;
};

}  // namespace small::core
