#include "heap/backend.hpp"

#include <vector>

#include "support/error.hpp"

namespace small::heap {

using support::Error;
using support::SimulationError;

// ---------------------------------------------------------------------------
// Generic decode: one spine-iterative walk over the virtual car/cdr, so
// each backend's decode pays exactly its representation's touch profile.
// ---------------------------------------------------------------------------

sexpr::NodeRef HeapBackend::decode(sexpr::Arena& arena, HeapWord root) const {
  switch (root.tag) {
    case HeapWord::Tag::kNil:
      return sexpr::kNilRef;
    case HeapWord::Tag::kSymbol:
      return arena.symbol(static_cast<sexpr::SymbolId>(root.payload));
    case HeapWord::Tag::kInteger:
      return arena.integer(static_cast<std::int64_t>(root.payload));
    case HeapWord::Tag::kPointer: {
      std::vector<sexpr::NodeRef> heads;
      HeapWord cursor = root;
      HeapWord tail = HeapWord::nil();
      while (cursor.isPointer()) {
        heads.push_back(decode(arena, car(cursor.payload)));
        const HeapWord next = cdr(cursor.payload);
        if (next.isPointer()) {
          cursor = next;
        } else {
          tail = next;
          break;
        }
      }
      sexpr::NodeRef result = decode(arena, tail);
      for (std::size_t i = heads.size(); i-- > 0;) {
        result = arena.cons(heads[i], result);
      }
      return result;
    }
  }
  throw Error("HeapBackend: unreachable word tag");
}

// ---------------------------------------------------------------------------
// Resumable collection driver: one tri-color mark/sweep loop over the
// per-representation gcVisit/gcTraceOne/gcSweepAt bodies. The stop-the-
// world collectGarbage is the degenerate single unbounded slice, with
// stats identical to the pre-driver per-backend implementations.
// ---------------------------------------------------------------------------

HeapBackend::CollectResult HeapBackend::collectGarbage(
    const std::vector<HeapWord>& roots) {
  gcBegin(roots, /*youngOnly=*/false);
  CollectResult result;
  gcStep(0, result);
  return result;
}

void HeapBackend::gcBegin(const std::vector<HeapWord>& roots, bool youngOnly) {
  if (gcPhase_ != GcPhase::kIdle) {
    throw Error("HeapBackend::gcBegin: collection cycle already active");
  }
  if (youngOnly && !youngTracking_) {
    throw Error("HeapBackend::gcBegin: young cycle without young tracking");
  }
  gcMarked_.assign(cellsAllocated(), false);
  gcGray_.clear();
  gcYoungOnly_ = youngOnly;
  gcSweepCursor_ = 0;
  gcYoungSweepPos_ = 0;
  // The root scan is atomic (the root file is small): it is what makes
  // the SATB snapshot well-defined for the incremental driver.
  gcPhase_ = GcPhase::kMark;
  for (const HeapWord& root : roots) {
    if (root.isPointer()) gcVisit(root.payload);
  }
  if (youngOnly) {
    for (const CellRef target : remembered_) gcVisit(target);
  }
}

bool HeapBackend::gcStep(std::uint64_t touchBudget, CollectResult& result) {
  if (gcPhase_ == GcPhase::kIdle) return true;
  const std::uint64_t touchesBefore = stats_.touches();
  const auto overBudget = [&] {
    return touchBudget != 0 && stats_.touches() - touchesBefore >= touchBudget;
  };

  if (gcPhase_ == GcPhase::kMark) {
    while (!gcGray_.empty() && !overBudget()) {
      const CellRef cell = gcGray_.back();
      gcGray_.pop_back();
      gcTraceOne(cell, result);
    }
    if (!gcGray_.empty()) return false;  // slice exhausted mid-mark
    gcPhase_ = GcPhase::kSweep;
  }

  if (gcYoungOnly_) {
    // Young sweep: only the cells recorded since the last promotion, in
    // allocation order (pair heads precede their partner slots, so an
    // unmarked pair is freed head-first and the partner skips as freed).
    while (gcYoungSweepPos_ < youngList_.size() && !overBudget()) {
      gcSweepAt(youngList_[gcYoungSweepPos_++], result);
    }
    if (gcYoungSweepPos_ < youngList_.size()) return false;
  } else {
    // Full sweep: ascend the cell store up to the cycle's snapshot
    // extent; cells allocated mid-cycle beyond it are implicitly black.
    while (gcSweepCursor_ < gcMarked_.size() && !overBudget()) {
      gcSweepAt(gcSweepCursor_++, result);
    }
    if (gcSweepCursor_ < gcMarked_.size()) return false;
  }

  // Cycle complete: survivors of any cycle are promoted out of the
  // nursery (a full cycle restores the exact live set; a young cycle
  // promoted exactly its survivors).
  if (youngTracking_) gcPromote();
  gcMarked_.clear();
  gcGray_.clear();
  gcPhase_ = GcPhase::kIdle;
  return true;
}

HeapBackend::CollectResult HeapBackend::collectYoung(
    const std::vector<HeapWord>& roots) {
  gcBegin(roots, /*youngOnly=*/true);
  CollectResult result;
  gcStep(0, result);
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// Two-pointer backend (Fig 2.6): every cons is one cell holding a car and
// a cdr word, with a LIFO free list. Splitting "simply returns the values
// of the 2 pointers and frees the list cell"; merging allocates a cell.
// ---------------------------------------------------------------------------

class TwoPointerBackend final : public HeapBackend {
 public:
  const char* name() const override { return "two-pointer"; }

  CellRef allocate(HeapWord car, HeapWord cdr) override {
    CellRef cell;
    if (!freeList_.empty()) {
      cell = freeList_.back();
      freeList_.pop_back();
      cells_[cell] = Cell{car, cdr, false};
    } else {
      cell = cells_.size();
      cells_.push_back(Cell{car, cdr, false});
    }
    ++stats_.allocs;
    stats_.writes += 2;
    noteAlloc(1);
    gcNoteAlloc(cell, 1);
    return cell;
  }

  void free(CellRef cell) override {
    Cell& slot = at(cell);
    if (slot.free) throw SimulationError("TwoPointerBackend: double free");
    slot = Cell{HeapWord::nil(), HeapWord::nil(), true};
    freeList_.push_back(cell);
    ++stats_.writes;
    noteFree(1);
  }

  std::uint64_t freeObject(CellRef root) override {
    // Iterative traversal with an explicit stack, as the heap controller
    // would do while servicing its free-request queue. The controller
    // examines both words of every reclaimed cell to find substructure,
    // then rewrites it onto the free list.
    std::uint64_t reclaimed = 0;
    std::vector<CellRef> stack{root};
    while (!stack.empty()) {
      const CellRef cell = stack.back();
      stack.pop_back();
      if (cell >= cells_.size()) continue;
      const Cell& slot = cells_[cell];
      if (slot.free) continue;  // shared substructure already reclaimed
      if (slot.car.isPointer()) stack.push_back(slot.car.payload);
      if (slot.cdr.isPointer()) stack.push_back(slot.cdr.payload);
      stats_.reads += 2;
      free(cell);
      ++reclaimed;
    }
    return reclaimed;
  }

  HeapWord car(CellRef cell) const override {
    ++stats_.reads;
    return live(cell).car;
  }
  HeapWord cdr(CellRef cell) const override {
    ++stats_.reads;
    return live(cell).cdr;
  }
  void setCar(CellRef cell, HeapWord value) override {
    Cell& slot = live(cell);
    if (gcMarking()) gcShadeWord(slot.car);
    if (value.isPointer() && !isYoung(cell)) gcRemember(value.payload);
    ++stats_.writes;
    slot.car = value;
  }
  void setCdr(CellRef cell, HeapWord value) override {
    Cell& slot = live(cell);
    if (gcMarking()) gcShadeWord(slot.cdr);
    if (value.isPointer() && !isYoung(cell)) gcRemember(value.payload);
    ++stats_.writes;
    slot.cdr = value;
  }

  SplitResult split(CellRef cell) override {
    const Cell halves = live(cell);
    free(cell);  // the free-list insertion write
    ++stats_.splits;
    ++stats_.reads;  // one cell fetch yields both words
    // The destroyed cell's words escape to the owner's table: keep their
    // targets in an in-flight cycle's snapshot.
    gcShadeWord(halves.car);
    gcShadeWord(halves.cdr);
    return {halves.car, halves.cdr};
  }

  CellRef merge(HeapWord car, HeapWord cdr) override {
    ++stats_.merges;
    return allocate(car, cdr);
  }

  HeapWord encode(const sexpr::Arena& arena, sexpr::NodeRef root) override {
    switch (arena.kind(root)) {
      case sexpr::NodeKind::kNil:
        return HeapWord::nil();
      case sexpr::NodeKind::kSymbol:
        return HeapWord::symbol(arena.symbolId(root));
      case sexpr::NodeKind::kInteger:
        return HeapWord::integer(arena.integerValue(root));
      case sexpr::NodeKind::kCons:
        break;
    }
    // Encode the spine iteratively, building cells back-to-front so cdr
    // pointers are known when each cell is allocated.
    std::vector<sexpr::NodeRef> spine;
    sexpr::NodeRef cursor = root;
    while (arena.kind(cursor) == sexpr::NodeKind::kCons) {
      spine.push_back(cursor);
      cursor = arena.cdr(cursor);
    }
    HeapWord tail = encode(arena, cursor);
    for (std::size_t i = spine.size(); i-- > 0;) {
      const HeapWord head = encode(arena, arena.car(spine[i]));
      tail = HeapWord::pointer(allocate(head, tail));
    }
    return tail;
  }

  std::uint64_t cellsAllocated() const override { return cells_.size(); }

 protected:
  void gcVisit(CellRef cell) override {
    if (cell >= gcMarked_.size()) return;  // post-snapshot: implicitly black
    if (cells_[cell].free) return;         // stale gray/shade target
    if (gcYoungOnly() && !isYoung(cell)) return;
    if (!gcMarked_[cell]) {
      gcMarked_[cell] = true;
      gcGray_.push_back(cell);
    }
  }

  void gcTraceOne(CellRef cell, CollectResult& result) override {
    const Cell& slot = cells_[cell];
    if (slot.free) return;  // freed after it went gray
    ++result.traced;
    // One cell fetch yields both words of each traced cell.
    stats_.reads += 2;
    if (slot.car.isPointer()) gcVisit(slot.car.payload);
    if (slot.cdr.isPointer()) gcVisit(slot.cdr.payload);
  }

  void gcSweepAt(CellRef cell, CollectResult& result) override {
    // A read per occupied cell examined, a free-list write per reclaim.
    if (cells_[cell].free) return;
    ++stats_.reads;
    if (gcMarked_[cell]) return;
    free(cell);
    ++result.reclaimed;
  }

 private:
  struct Cell {
    HeapWord car;
    HeapWord cdr;
    bool free = false;
  };

  Cell& at(CellRef cell) {
    if (cell >= cells_.size()) throw Error("TwoPointerBackend: bad cell ref");
    return cells_[cell];
  }
  const Cell& at(CellRef cell) const {
    if (cell >= cells_.size()) throw Error("TwoPointerBackend: bad cell ref");
    return cells_[cell];
  }
  /// An allocated cell: a freed one may not be read, written or split.
  Cell& live(CellRef cell) {
    Cell& slot = at(cell);
    if (slot.free) throw SimulationError("TwoPointerBackend: freed cell");
    return slot;
  }
  const Cell& live(CellRef cell) const {
    const Cell& slot = at(cell);
    if (slot.free) throw SimulationError("TwoPointerBackend: freed cell");
    return slot;
  }

  std::vector<Cell> cells_;
  std::vector<CellRef> freeList_;  // LIFO: most recently freed reused first
};

// ---------------------------------------------------------------------------
// Cdr-coded backend (Fig 2.8, MIT Lisp Machine style): each cell holds one
// full-width car word plus a 2-bit cdr code:
//   cdr-next   — the cdr is the next cell,
//   cdr-nil    — the cdr is nil (last cell of a vectorized run),
//   cdr-normal — the cdr pointer lives in the *next* cell's car word,
//   cdr-error  — this cell is the second half of a cdr-normal pair.
// Encoded lists are vectorized runs; explicit-cdr conses are cdr-normal/
// cdr-error pairs of adjacent cells; destructive cdr replacement on a
// vectorized cell copies it out into a cdr-normal pair, reached through
// an *invisible pointer* that the access hardware dereferences
// transparently (§2.3.3.1).
// ---------------------------------------------------------------------------

enum class CdrCode : std::uint8_t { kNormal, kError, kNext, kNil };

struct CdrWord {
  enum class Tag : std::uint8_t {
    kNil,
    kPointer,
    kSymbol,
    kInteger,
    kInvisible,  ///< forwarded cell; hardware auto-dereferences
  };
  Tag tag = Tag::kNil;
  std::uint64_t payload = 0;

  static CdrWord nil() { return {}; }
  static CdrWord pointer(std::uint64_t cell) { return {Tag::kPointer, cell}; }
  static CdrWord symbol(std::uint64_t id) { return {Tag::kSymbol, id}; }
  static CdrWord invisible(std::uint64_t cell) {
    return {Tag::kInvisible, cell};
  }

  bool isPointer() const { return tag == Tag::kPointer; }
};

class CdrCodedBackend final : public HeapBackend {
 public:
  const char* name() const override { return "cdr-coded"; }

  CellRef allocate(HeapWord car, HeapWord cdr) override {
    ++stats_.allocs;
    if (cdr.tag == HeapWord::Tag::kNil) {
      const CellRef cell = allocSingle();
      cells_[cell] = Cell{toCdr(car), CdrCode::kNil, false};
      ++stats_.writes;
      gcNoteAlloc(cell, 1);
      return cell;
    }
    const CellRef cell = allocPair();
    cells_[cell] = Cell{toCdr(car), CdrCode::kNormal, false};
    cells_[cell + 1] = Cell{toCdr(cdr), CdrCode::kError, false};
    stats_.writes += 2;
    gcNoteAlloc(cell, 2);
    return cell;
  }

  void free(CellRef cell) override { freeCons(resolveFreeing(cell)); }

  std::uint64_t freeObject(CellRef root) override {
    std::uint64_t reclaimed = 0;
    std::vector<CellRef> stack{root};
    while (!stack.empty()) {
      CellRef cell = stack.back();
      stack.pop_back();
      if (cell >= cells_.size() || cells_[cell].free) continue;
      // Forwarding cells die with the object they forward to.
      while (cells_[cell].car.tag == CdrWord::Tag::kInvisible) {
        const CellRef next = cells_[cell].car.payload;
        ++stats_.reads;
        freeSingle(cell);
        ++reclaimed;
        cell = next;
        if (cell >= cells_.size() || cells_[cell].free) break;
      }
      if (cell >= cells_.size() || cells_[cell].free) continue;
      const Cell& slot = cells_[cell];
      ++stats_.reads;
      if (slot.car.isPointer()) stack.push_back(slot.car.payload);
      switch (slot.code) {
        case CdrCode::kNext:
          stack.push_back(cell + 1);
          freeSingle(cell);
          ++reclaimed;
          break;
        case CdrCode::kNil:
          freeSingle(cell);
          ++reclaimed;
          break;
        case CdrCode::kNormal: {
          ++stats_.reads;
          const CdrWord tail = cells_[cell + 1].car;
          if (tail.isPointer()) stack.push_back(tail.payload);
          freePair(cell);
          reclaimed += 2;
          break;
        }
        case CdrCode::kError:
          throw SimulationError(
              "CdrCodedBackend: freeObject entered a cdr-error cell");
      }
    }
    return reclaimed;
  }

  HeapWord car(CellRef cell) const override {
    const CellRef c = resolve(cell);
    ++stats_.reads;
    return toWord(at(c).car);
  }

  HeapWord cdr(CellRef cell) const override {
    const CellRef c = resolve(cell);
    ++stats_.reads;
    switch (at(c).code) {
      case CdrCode::kNext:
        // Address arithmetic, not a memory read — the cdr-coding win.
        return HeapWord::pointer(c + 1);
      case CdrCode::kNil:
        return HeapWord::nil();
      case CdrCode::kNormal:
        ++stats_.reads;
        return toWord(at(c + 1).car);
      case CdrCode::kError:
        throw SimulationError("CdrCodedBackend: cdr of a cdr-error cell");
    }
    throw Error("CdrCodedBackend: unreachable cdr code");
  }

  void setCar(CellRef cell, HeapWord value) override {
    const CellRef c = resolve(cell);
    if (gcMarking() && at(c).car.isPointer()) {
      gcShadeWord(HeapWord::pointer(at(c).car.payload));
    }
    if (value.isPointer() && !isYoung(c)) gcRemember(value.payload);
    ++stats_.writes;
    at(c).car = toCdr(value);
  }

  void setCdr(CellRef cell, HeapWord value) override {
    const CellRef c = resolve(cell);
    Cell& slot = at(c);
    switch (slot.code) {
      case CdrCode::kNormal:
        if (gcMarking() && at(c + 1).car.isPointer()) {
          gcShadeWord(HeapWord::pointer(at(c + 1).car.payload));
        }
        if (value.isPointer() && !isYoung(c)) gcRemember(value.payload);
        ++stats_.writes;
        at(c + 1).car = toCdr(value);
        return;
      case CdrCode::kError:
        throw SimulationError("CdrCodedBackend: rplacd of a cdr-error cell");
      case CdrCode::kNext:
      case CdrCode::kNil: {
        // Copy out into a cdr-normal pair; forward the old cell through an
        // invisible pointer (§2.3.3.1). A kNext predecessor's old implicit
        // successor is orphaned from *this* cons — its ownership already
        // lives with whoever holds the old cdr value.
        if (slot.code == CdrCode::kNext) {
          gcShadeWord(HeapWord::pointer(c + 1));  // the orphaned successor
        }
        const CellRef fresh = allocPair();
        ++stats_.reads;
        cells_[fresh] = Cell{cells_[c].car, CdrCode::kNormal, false};
        cells_[fresh + 1] = Cell{toCdr(value), CdrCode::kError, false};
        cells_[c].car = CdrWord::invisible(fresh);
        stats_.writes += 3;
        gcNoteAlloc(fresh, 2);
        if (!isYoung(c)) gcRemember(fresh);  // old cell now forwards here
        return;
      }
    }
  }

  SplitResult split(CellRef cell) override {
    const CellRef c = resolveFreeing(cell);
    const Cell snapshot = at(c);
    if (snapshot.free) {
      throw SimulationError("CdrCodedBackend: split of a freed cell");
    }
    ++stats_.splits;
    ++stats_.reads;
    const HeapWord carWord = toWord(snapshot.car);
    HeapWord cdrWord;
    switch (snapshot.code) {
      case CdrCode::kNext:
        // The rest of the run survives; ownership moves to the cdr word.
        cdrWord = HeapWord::pointer(c + 1);
        freeSingle(c);
        break;
      case CdrCode::kNil:
        cdrWord = HeapWord::nil();
        freeSingle(c);
        break;
      case CdrCode::kNormal:
        ++stats_.reads;
        cdrWord = toWord(at(c + 1).car);
        freePair(c);
        break;
      case CdrCode::kError:
        throw SimulationError("CdrCodedBackend: split of a cdr-error cell");
    }
    // The destroyed cell's words escape to the owner's table: keep their
    // targets in an in-flight cycle's snapshot.
    gcShadeWord(carWord);
    gcShadeWord(cdrWord);
    return {carWord, cdrWord};
  }

  CellRef merge(HeapWord car, HeapWord cdr) override {
    ++stats_.merges;
    return allocate(car, cdr);
  }

  HeapWord encode(const sexpr::Arena& arena, sexpr::NodeRef root) override {
    switch (arena.kind(root)) {
      case sexpr::NodeKind::kNil:
        return HeapWord::nil();
      case sexpr::NodeKind::kSymbol:
        return HeapWord::symbol(arena.symbolId(root));
      case sexpr::NodeKind::kInteger:
        return HeapWord::integer(arena.integerValue(root));
      case sexpr::NodeKind::kCons:
        break;
    }
    // Vectorized run layout: gather the spine, encode element sublists
    // first, then lay the run out in consecutive fresh cells (runs need
    // contiguity, so the free pool is not consulted here — representation
    // fragmentation is the price of vector coding and shows up in
    // cellsAllocated).
    std::vector<sexpr::NodeRef> spine;
    sexpr::NodeRef cursor = root;
    while (arena.kind(cursor) == sexpr::NodeKind::kCons) {
      spine.push_back(cursor);
      cursor = arena.cdr(cursor);
    }
    const bool properList = arena.isNil(cursor);

    std::vector<CdrWord> heads;
    heads.reserve(spine.size());
    for (const sexpr::NodeRef node : spine) {
      heads.push_back(toCdr(encode(arena, arena.car(node))));
    }
    const CdrWord tail =
        properList ? CdrWord::nil() : toCdr(encode(arena, cursor));

    const CellRef start = cells_.size();
    for (std::size_t i = 0; i < heads.size(); ++i) {
      Cell cell;
      cell.car = heads[i];
      const bool last = i + 1 == heads.size();
      cell.code = !last ? CdrCode::kNext
                        : (properList ? CdrCode::kNil : CdrCode::kNormal);
      cells_.push_back(cell);
    }
    if (!properList) {
      Cell errorCell;
      errorCell.car = tail;
      errorCell.code = CdrCode::kError;
      cells_.push_back(errorCell);
    }
    const std::uint64_t laid = cells_.size() - start;
    stats_.allocs += heads.size();
    stats_.writes += laid;
    noteAlloc(laid);
    gcNoteAlloc(start, laid);
    return HeapWord::pointer(start);
  }

  std::uint64_t cellsAllocated() const override { return cells_.size(); }

 protected:
  // Invisible forwarding chains are marked as part of the object that
  // forwards through them (they die together, they live together); a
  // cdr-normal head marks its cdr-error partner; a cdr-next cell's
  // implicit successor is part of the same run and traces as a cell of
  // its own.
  void gcVisit(CellRef cell) override {
    while (true) {
      if (cell >= gcMarked_.size()) return;  // post-snapshot: black
      if (cells_[cell].free) return;         // stale gray/shade target
      if (gcYoungOnly() && !isYoung(cell)) return;
      if (gcMarked_[cell]) return;
      if (cells_[cell].car.tag == CdrWord::Tag::kInvisible) {
        gcMarked_[cell] = true;
        ++stats_.reads;
        cell = cells_[cell].car.payload;
        continue;
      }
      gcMarked_[cell] = true;
      gcGray_.push_back(cell);
      return;
    }
  }

  void gcTraceOne(CellRef cell, CollectResult& result) override {
    if (cells_[cell].free) return;  // freed after it went gray
    ++result.traced;
    const Cell& slot = cells_[cell];
    ++stats_.reads;
    if (slot.car.isPointer()) gcVisit(slot.car.payload);
    switch (slot.code) {
      case CdrCode::kNext:
        gcVisit(cell + 1);
        break;
      case CdrCode::kNil:
        break;
      case CdrCode::kNormal: {
        if (cell + 1 < gcMarked_.size()) gcMarked_[cell + 1] = true;
        ++stats_.reads;
        const CdrWord tail = cells_[cell + 1].car;
        if (tail.isPointer()) gcVisit(tail.payload);
        break;
      }
      case CdrCode::kError:
        throw SimulationError(
            "CdrCodedBackend: collectGarbage traced into a cdr-error "
            "cell");
    }
  }

  // Sweep one position. An unmarked cdr-normal head takes its partner
  // with it (freePair), so a directly encountered live-looking cdr-error
  // cell means the store is corrupt (a young sweep visits heads before
  // partners, so partners are always freed or marked by then).
  void gcSweepAt(CellRef cell, CollectResult& result) override {
    const Cell& slot = cells_[cell];
    if (slot.free) return;
    ++stats_.reads;
    if (gcMarked_[cell]) return;
    if (slot.car.tag == CdrWord::Tag::kInvisible) {
      freeSingle(cell);
      ++result.reclaimed;
      return;
    }
    switch (slot.code) {
      case CdrCode::kNext:
      case CdrCode::kNil:
        freeSingle(cell);
        ++result.reclaimed;
        break;
      case CdrCode::kNormal:
        freePair(cell);
        result.reclaimed += 2;
        break;
      case CdrCode::kError:
        throw SimulationError(
            "CdrCodedBackend: collectGarbage swept an orphaned cdr-error "
            "cell");
    }
  }

 private:
  struct Cell {
    CdrWord car;
    CdrCode code = CdrCode::kNil;
    bool free = false;
  };

  static CdrWord toCdr(HeapWord word) {
    switch (word.tag) {
      case HeapWord::Tag::kNil:
        return CdrWord::nil();
      case HeapWord::Tag::kPointer:
        return CdrWord::pointer(word.payload);
      case HeapWord::Tag::kSymbol:
        return CdrWord::symbol(word.payload);
      case HeapWord::Tag::kInteger:
        return {CdrWord::Tag::kInteger, word.payload};
    }
    throw Error("CdrCodedBackend: unreachable word tag");
  }

  static HeapWord toWord(CdrWord word) {
    switch (word.tag) {
      case CdrWord::Tag::kNil:
        return HeapWord::nil();
      case CdrWord::Tag::kPointer:
        return HeapWord::pointer(word.payload);
      case CdrWord::Tag::kSymbol:
        return HeapWord::symbol(word.payload);
      case CdrWord::Tag::kInteger:
        return {HeapWord::Tag::kInteger, word.payload};
      case CdrWord::Tag::kInvisible:
        throw SimulationError(
            "CdrCodedBackend: invisible pointer escaped resolution");
    }
    throw Error("CdrCodedBackend: unreachable cdr word tag");
  }

  Cell& at(CellRef cell) {
    if (cell >= cells_.size()) throw Error("CdrCodedBackend: bad cell ref");
    return cells_[cell];
  }
  const Cell& at(CellRef cell) const {
    if (cell >= cells_.size()) throw Error("CdrCodedBackend: bad cell ref");
    return cells_[cell];
  }

  /// Chase invisible pointers ("hardware" forwarding: a dependent read
  /// per hop).
  CellRef resolve(CellRef cell) const {
    while (at(cell).car.tag == CdrWord::Tag::kInvisible) {
      ++stats_.reads;
      cell = at(cell).car.payload;
    }
    return cell;
  }

  /// Resolve while freeing the forwarding chain — used when the cons
  /// itself is being consumed (split/free), taking its forwarders along.
  CellRef resolveFreeing(CellRef cell) {
    while (at(cell).car.tag == CdrWord::Tag::kInvisible) {
      const CellRef next = at(cell).car.payload;
      ++stats_.reads;
      freeSingle(cell);
      cell = next;
    }
    return cell;
  }

  /// Free the (already resolved) cons at `cell`.
  void freeCons(CellRef cell) {
    switch (at(cell).code) {
      case CdrCode::kNext:
      case CdrCode::kNil:
        freeSingle(cell);
        return;
      case CdrCode::kNormal:
        freePair(cell);
        return;
      case CdrCode::kError:
        throw SimulationError("CdrCodedBackend: free of a cdr-error cell");
    }
  }

  CellRef allocSingle() {
    if (!freeSingles_.empty()) {
      const CellRef cell = freeSingles_.back();
      freeSingles_.pop_back();
      noteAlloc(1);
      return cell;
    }
    if (!freePairs_.empty()) {
      const CellRef cell = freePairs_.back();
      freePairs_.pop_back();
      freeSingles_.push_back(cell + 1);
      noteAlloc(1);
      return cell;
    }
    cells_.push_back(Cell{});
    noteAlloc(1);
    return cells_.size() - 1;
  }

  CellRef allocPair() {
    if (!freePairs_.empty()) {
      const CellRef cell = freePairs_.back();
      freePairs_.pop_back();
      noteAlloc(2);
      return cell;
    }
    cells_.push_back(Cell{});
    cells_.push_back(Cell{});
    noteAlloc(2);
    return cells_.size() - 2;
  }

  void freeSingle(CellRef cell) {
    Cell& slot = at(cell);
    if (slot.free) throw SimulationError("CdrCodedBackend: double free");
    slot = Cell{};
    slot.free = true;
    ++stats_.writes;
    noteFree(1);
    freeSingles_.push_back(cell);
  }

  void freePair(CellRef cell) {
    Cell& first = at(cell);
    Cell& second = at(cell + 1);
    if (first.free || second.free) {
      throw SimulationError("CdrCodedBackend: double free");
    }
    first = Cell{};
    first.free = true;
    second = Cell{};
    second.free = true;
    stats_.writes += 2;
    noteFree(2);
    freePairs_.push_back(cell);
  }

  std::vector<Cell> cells_;
  std::vector<CellRef> freeSingles_;
  std::vector<CellRef> freePairs_;  ///< adjacent (c, c+1) pairs
};

// ---------------------------------------------------------------------------
// Linked-vector backend (Fig 2.7, [Li85a]): lists live in fixed-size
// vectors of tagged elements; the cdr is implicitly the next element,
// with indirection elements at vector boundaries (the exception case) and
// explicit cdr slots for dotted tails and merge-produced conses. The
// vector size trades internal fragmentation against indirection overhead.
// ---------------------------------------------------------------------------

class LinkedVectorBackend final : public HeapBackend {
 public:
  const char* name() const override { return "linked-vector"; }

  CellRef allocate(HeapWord car, HeapWord cdr) override {
    ++stats_.allocs;
    if (cdr.tag == HeapWord::Tag::kNil) {
      const CellRef ref = allocSingle();
      elements_[ref] = Element{Tag::kCdrNil, car};
      ++stats_.writes;
      gcNoteAlloc(ref, 1);
      return ref;
    }
    const CellRef ref = allocPair();
    elements_[ref] = Element{Tag::kCdrCell, car};
    elements_[ref + 1] = Element{Tag::kCdrSlot, cdr};
    stats_.writes += 2;
    gcNoteAlloc(ref, 2);
    return ref;
  }

  void free(CellRef cell) override { freeCons(resolveFreeing(cell)); }

  std::uint64_t freeObject(CellRef root) override {
    std::uint64_t reclaimed = 0;
    std::vector<CellRef> stack{root};
    while (!stack.empty()) {
      CellRef ref = stack.back();
      stack.pop_back();
      if (ref >= elements_.size() || elements_[ref].tag == Tag::kUnused) {
        continue;
      }
      while (elements_[ref].tag == Tag::kIndirect) {
        const CellRef next = elements_[ref].value.payload;
        ++stats_.reads;
        freeSlot(ref);
        ++reclaimed;
        ref = next;
        if (ref >= elements_.size() ||
            elements_[ref].tag == Tag::kUnused) {
          break;
        }
      }
      if (ref >= elements_.size() || elements_[ref].tag == Tag::kUnused) {
        continue;
      }
      const Element& element = elements_[ref];
      ++stats_.reads;
      if (element.value.isPointer()) stack.push_back(element.value.payload);
      switch (element.tag) {
        case Tag::kNext:
          stack.push_back(ref + 1);
          freeSlot(ref);
          ++reclaimed;
          break;
        case Tag::kCdrNil:
          freeSlot(ref);
          ++reclaimed;
          break;
        case Tag::kCdrCell: {
          ++stats_.reads;
          const HeapWord tail = elements_[ref + 1].value;
          if (tail.isPointer()) stack.push_back(tail.payload);
          freeSlot(ref + 1);
          freeSlot(ref);
          reclaimed += 2;
          freePairs_.push_back(ref);
          // freeSlot pushed both halves as singles; undo in favor of the
          // pair list so merges can reuse adjacent slots.
          freeSingles_.pop_back();
          freeSingles_.pop_back();
          break;
        }
        case Tag::kCdrSlot:
        case Tag::kIndirect:
        case Tag::kUnused:
          throw SimulationError(
              "LinkedVectorBackend: freeObject entered a non-cons element");
      }
    }
    return reclaimed;
  }

  HeapWord car(CellRef cell) const override {
    const CellRef ref = resolve(cell);
    ++stats_.reads;
    return at(ref).value;
  }

  HeapWord cdr(CellRef cell) const override {
    const CellRef ref = resolve(cell);
    ++stats_.reads;
    switch (at(ref).tag) {
      case Tag::kNext:
        // The element's cdr is the next slot: address arithmetic only.
        return HeapWord::pointer(ref + 1);
      case Tag::kCdrNil:
        return HeapWord::nil();
      case Tag::kCdrCell:
        ++stats_.reads;
        return at(ref + 1).value;
      case Tag::kCdrSlot:
      case Tag::kIndirect:
      case Tag::kUnused:
        throw SimulationError(
            "LinkedVectorBackend: cdr of a non-cons element");
    }
    throw Error("LinkedVectorBackend: unreachable element tag");
  }

  void setCar(CellRef cell, HeapWord value) override {
    const CellRef ref = resolve(cell);
    if (gcMarking()) gcShadeWord(at(ref).value);
    if (value.isPointer() && !isYoung(ref)) gcRemember(value.payload);
    ++stats_.writes;
    at(ref).value = value;
  }

  void setCdr(CellRef cell, HeapWord value) override {
    const CellRef ref = resolve(cell);
    Element& element = at(ref);
    switch (element.tag) {
      case Tag::kCdrCell:
        if (gcMarking()) gcShadeWord(at(ref + 1).value);
        if (value.isPointer() && !isYoung(ref)) gcRemember(value.payload);
        ++stats_.writes;
        at(ref + 1).value = value;
        return;
      case Tag::kNext:
      case Tag::kCdrNil: {
        // The exception case: copy out to an explicit-cdr pair elsewhere
        // and leave an indirection element behind.
        if (element.tag == Tag::kNext) {
          gcShadeWord(HeapWord::pointer(ref + 1));  // orphaned successor
        }
        const CellRef fresh = allocPair();
        ++stats_.reads;
        elements_[fresh] = Element{Tag::kCdrCell, elements_[ref].value};
        elements_[fresh + 1] = Element{Tag::kCdrSlot, value};
        elements_[ref] =
            Element{Tag::kIndirect, HeapWord::pointer(fresh)};
        stats_.writes += 3;
        gcNoteAlloc(fresh, 2);
        if (!isYoung(ref)) gcRemember(fresh);  // old cell now forwards here
        return;
      }
      case Tag::kCdrSlot:
      case Tag::kIndirect:
      case Tag::kUnused:
        throw SimulationError(
            "LinkedVectorBackend: rplacd of a non-cons element");
    }
  }

  SplitResult split(CellRef cell) override {
    const CellRef ref = resolveFreeing(cell);
    const Element snapshot = at(ref);
    ++stats_.splits;
    ++stats_.reads;
    const HeapWord carWord = snapshot.value;
    HeapWord cdrWord;
    switch (snapshot.tag) {
      case Tag::kNext:
        cdrWord = HeapWord::pointer(ref + 1);
        freeSlot(ref);
        break;
      case Tag::kCdrNil:
        cdrWord = HeapWord::nil();
        freeSlot(ref);
        break;
      case Tag::kCdrCell:
        ++stats_.reads;
        cdrWord = at(ref + 1).value;
        freeSlot(ref + 1);
        freeSlot(ref);
        freePairs_.push_back(ref);
        freeSingles_.pop_back();
        freeSingles_.pop_back();
        break;
      case Tag::kCdrSlot:
      case Tag::kIndirect:
      case Tag::kUnused:
        throw SimulationError(
            "LinkedVectorBackend: split of a non-cons element");
    }
    // The destroyed element's words escape to the owner's table: keep
    // their targets in an in-flight cycle's snapshot.
    gcShadeWord(carWord);
    gcShadeWord(cdrWord);
    return {carWord, cdrWord};
  }

  CellRef merge(HeapWord car, HeapWord cdr) override {
    ++stats_.merges;
    return allocate(car, cdr);
  }

  HeapWord encode(const sexpr::Arena& arena, sexpr::NodeRef root) override {
    switch (arena.kind(root)) {
      case sexpr::NodeKind::kNil:
        return HeapWord::nil();
      case sexpr::NodeKind::kSymbol:
        return HeapWord::symbol(arena.symbolId(root));
      case sexpr::NodeKind::kInteger:
        return HeapWord::integer(arena.integerValue(root));
      case sexpr::NodeKind::kCons:
        break;
    }
    // Gather the spine; sublists and the dotted tail encode first.
    std::vector<sexpr::NodeRef> spine;
    sexpr::NodeRef cursor = root;
    while (arena.kind(cursor) == sexpr::NodeKind::kCons) {
      spine.push_back(cursor);
      cursor = arena.cdr(cursor);
    }
    const bool properList = arena.isNil(cursor);
    std::vector<HeapWord> heads;
    heads.reserve(spine.size());
    for (const sexpr::NodeRef node : spine) {
      heads.push_back(encode(arena, arena.car(node)));
    }
    const HeapWord tail =
        properList ? HeapWord::nil() : encode(arena, cursor);

    // Lay the run out vector by vector. Invariant on entering each
    // iteration: the current slot is <= kVectorSize-2, so one more slot
    // is always adjacent — for the next run element, a dotted-tail cdr
    // slot, or the indirection element that continues the run in a
    // fresh vector. A kNext element forces its successor to the very
    // next slot, so continuation decisions are made by the predecessor.
    if (!haveVector_ || slotInCurrentVector_ > kVectorSize - 2) {
      openVector();
    }
    CellRef first = 0;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      const bool last = i + 1 == heads.size();
      const CellRef ref = currentBase_ + slotInCurrentVector_;
      if (i == 0) first = ref;
      Element& element = elements_[ref];
      element.value = heads[i];
      ++stats_.writes;
      noteAlloc(1);
      ++stats_.allocs;
      ++slotInCurrentVector_;
      if (last) {
        if (properList) {
          element.tag = Tag::kCdrNil;
          gcNoteAlloc(ref, 1);
        } else {
          element.tag = Tag::kCdrCell;
          Element& slot = elements_[ref + 1];
          slot.tag = Tag::kCdrSlot;
          slot.value = tail;
          ++stats_.writes;
          noteAlloc(1);
          ++slotInCurrentVector_;
          gcNoteAlloc(ref, 2);
        }
      } else if (slotInCurrentVector_ <= kVectorSize - 2) {
        element.tag = Tag::kNext;  // successor fits in this vector
        gcNoteAlloc(ref, 1);
      } else {
        // Successor would land on the vector's last slot, where *its*
        // adjacent slot could not follow: continue through an
        // indirection element instead.
        element.tag = Tag::kNext;
        const CellRef indirectRef = ref + 1;
        ++slotInCurrentVector_;
        openVector();
        Element& indirect = elements_[indirectRef];
        indirect.tag = Tag::kIndirect;
        indirect.value = HeapWord::pointer(currentBase_);
        stats_.writes += 2;
        noteAlloc(1);
        gcNoteAlloc(ref, 2);  // the element and its indirection slot
      }
    }
    return HeapWord::pointer(first);
  }

  std::uint64_t cellsAllocated() const override { return elements_.size(); }

 protected:
  // Mark, with the same shape discipline as freeObject: indirection
  // chains mark with the object forwarding through them, a kCdrCell
  // head marks its cdr slot, a kNext element's successor is the next
  // slot of the same run.
  void gcVisit(CellRef ref) override {
    while (true) {
      if (ref >= gcMarked_.size()) return;  // post-snapshot: black
      if (elements_[ref].tag == Tag::kUnused) return;  // stale ref
      if (gcYoungOnly() && !isYoung(ref)) return;
      if (gcMarked_[ref]) return;
      if (elements_[ref].tag == Tag::kIndirect) {
        gcMarked_[ref] = true;
        ++stats_.reads;
        ref = elements_[ref].value.payload;
        continue;
      }
      gcMarked_[ref] = true;
      gcGray_.push_back(ref);
      return;
    }
  }

  void gcTraceOne(CellRef ref, CollectResult& result) override {
    if (elements_[ref].tag == Tag::kUnused) return;  // freed while gray
    ++result.traced;
    const Element& element = elements_[ref];
    ++stats_.reads;
    if (element.value.isPointer()) gcVisit(element.value.payload);
    switch (element.tag) {
      case Tag::kNext:
        gcVisit(ref + 1);
        break;
      case Tag::kCdrNil:
        break;
      case Tag::kCdrCell: {
        if (ref + 1 < gcMarked_.size()) gcMarked_[ref + 1] = true;
        ++stats_.reads;
        const HeapWord tail = elements_[ref + 1].value;
        if (tail.isPointer()) gcVisit(tail.payload);
        break;
      }
      case Tag::kCdrSlot:
      case Tag::kIndirect:
      case Tag::kUnused:
        throw SimulationError(
            "LinkedVectorBackend: collectGarbage traced a non-cons "
            "element");
    }
  }

  // Sweep one element-store position. An unmarked kCdrCell head frees
  // its pair with the usual adjacent-pair bookkeeping; a directly
  // encountered unmarked cdr slot means its head vanished without it.
  void gcSweepAt(CellRef ref, CollectResult& result) override {
    const Element& element = elements_[ref];
    if (element.tag == Tag::kUnused) return;
    ++stats_.reads;
    if (gcMarked_[ref]) return;
    switch (element.tag) {
      case Tag::kNext:
      case Tag::kCdrNil:
      case Tag::kIndirect:
        freeSlot(ref);
        ++result.reclaimed;
        break;
      case Tag::kCdrCell:
        freeSlot(ref + 1);
        freeSlot(ref);
        freePairs_.push_back(ref);
        freeSingles_.pop_back();
        freeSingles_.pop_back();
        result.reclaimed += 2;
        break;
      case Tag::kCdrSlot:
        throw SimulationError(
            "LinkedVectorBackend: collectGarbage swept an orphaned cdr "
            "slot");
      case Tag::kUnused:
        break;
    }
  }

 private:
  enum class Tag : std::uint8_t {
    kNext,      ///< car element; cdr is the next slot
    kCdrNil,    ///< car element; cdr is nil (end of run)
    kCdrCell,   ///< car element; explicit cdr word in the next slot
    kCdrSlot,   ///< second half of a kCdrCell pair
    kIndirect,  ///< continuation pointer (the exception element)
    kUnused,    ///< free slot
  };

  struct Element {
    Tag tag = Tag::kUnused;
    HeapWord value;
  };

  Element& at(CellRef ref) {
    if (ref >= elements_.size()) {
      throw Error("LinkedVectorBackend: bad element ref");
    }
    return elements_[ref];
  }
  const Element& at(CellRef ref) const {
    if (ref >= elements_.size()) {
      throw Error("LinkedVectorBackend: bad element ref");
    }
    return elements_[ref];
  }

  CellRef resolve(CellRef ref) const {
    while (at(ref).tag == Tag::kIndirect) {
      ++stats_.reads;
      ref = at(ref).value.payload;
    }
    return ref;
  }

  CellRef resolveFreeing(CellRef ref) {
    while (at(ref).tag == Tag::kIndirect) {
      const CellRef next = at(ref).value.payload;
      ++stats_.reads;
      freeSlot(ref);
      ref = next;
    }
    return ref;
  }

  void freeCons(CellRef ref) {
    switch (at(ref).tag) {
      case Tag::kNext:
      case Tag::kCdrNil:
        freeSlot(ref);
        return;
      case Tag::kCdrCell:
        freeSlot(ref + 1);
        freeSlot(ref);
        freePairs_.push_back(ref);
        freeSingles_.pop_back();
        freeSingles_.pop_back();
        return;
      case Tag::kCdrSlot:
      case Tag::kIndirect:
      case Tag::kUnused:
        throw SimulationError(
            "LinkedVectorBackend: free of a non-cons element");
    }
  }

  void openVector() {
    // Remaining slots of the abandoned vector become reusable singles.
    while (haveVector_ && slotInCurrentVector_ < kVectorSize) {
      freeSingles_.push_back(currentBase_ + slotInCurrentVector_);
      ++slotInCurrentVector_;
    }
    currentBase_ = elements_.size();
    elements_.resize(elements_.size() + kVectorSize);
    slotInCurrentVector_ = 0;
    haveVector_ = true;
  }

  CellRef allocSingle() {
    if (!freeSingles_.empty()) {
      const CellRef ref = freeSingles_.back();
      freeSingles_.pop_back();
      noteAlloc(1);
      return ref;
    }
    if (!freePairs_.empty()) {
      const CellRef ref = freePairs_.back();
      freePairs_.pop_back();
      freeSingles_.push_back(ref + 1);
      noteAlloc(1);
      return ref;
    }
    if (!haveVector_ || slotInCurrentVector_ >= kVectorSize) openVector();
    const CellRef ref = currentBase_ + slotInCurrentVector_;
    ++slotInCurrentVector_;
    noteAlloc(1);
    return ref;
  }

  CellRef allocPair() {
    if (!freePairs_.empty()) {
      const CellRef ref = freePairs_.back();
      freePairs_.pop_back();
      noteAlloc(2);
      return ref;
    }
    if (!haveVector_ || slotInCurrentVector_ + 2 > kVectorSize) {
      openVector();
    }
    const CellRef ref = currentBase_ + slotInCurrentVector_;
    slotInCurrentVector_ += 2;
    noteAlloc(2);
    return ref;
  }

  void freeSlot(CellRef ref) {
    Element& element = at(ref);
    if (element.tag == Tag::kUnused) {
      throw SimulationError("LinkedVectorBackend: double free");
    }
    element = Element{};
    ++stats_.writes;
    noteFree(1);
    freeSingles_.push_back(ref);
  }

  /// Elements per vector (>= 3, so a cdr pair plus an indirection
  /// always fits).
  static constexpr std::uint32_t kVectorSize = 8;

  std::vector<Element> elements_;
  std::vector<CellRef> freeSingles_;
  std::vector<CellRef> freePairs_;  ///< adjacent, same-vector pairs
  CellRef currentBase_ = 0;
  std::uint32_t slotInCurrentVector_ = 0;
  bool haveVector_ = false;
};

}  // namespace

const char* heapBackendName(HeapBackendKind kind) {
  switch (kind) {
    case HeapBackendKind::kTwoPointer:
      return "two-pointer";
    case HeapBackendKind::kCdrCoded:
      return "cdr-coded";
    case HeapBackendKind::kLinkedVector:
      return "linked-vector";
  }
  return "?";
}

std::unique_ptr<HeapBackend> makeHeapBackend(HeapBackendKind kind) {
  switch (kind) {
    case HeapBackendKind::kTwoPointer:
      return std::make_unique<TwoPointerBackend>();
    case HeapBackendKind::kCdrCoded:
      return std::make_unique<CdrCodedBackend>();
    case HeapBackendKind::kLinkedVector:
      return std::make_unique<LinkedVectorBackend>();
  }
  throw Error("makeHeapBackend: unknown backend kind");
}

}  // namespace small::heap
