#include "small/machine.hpp"

#include <algorithm>

namespace small::core {

using heap::HeapWord;
using support::EvalError;
using support::SimulationError;

SmallMachine::SmallMachine(Config config)
    : config_(config),
      heap_(heap::makeHeapBackend(config.heapBackend)),
      epRefs_(config.tableSize) {
  if (config_.tableSize == 0) {
    throw SimulationError("SmallMachine: zero-sized table");
  }
  switch (config_.gcPolicy) {
    case gc::Policy::kNone:
    case gc::Policy::kMarkSweep:
    case gc::Policy::kIncremental:
      break;
    case gc::Policy::kGenerational:
      heap_->setYoungTracking(true);
      break;
    default:
      throw support::Error(
          "SmallMachine: kSemispace/kDeferredRc relocate or re-register "
          "cells and cannot run under the LPT's pinned address words; "
          "drive them with the gc/script harness");
  }
  // Degenerate triggers: 0 would collect at every safepoint, and
  // anything below 4 turns the /4-derived quarter-growth guard and minor
  // trigger into 0 by integer division.
  if (usesCollector() && config_.gcTriggerCells < 4) {
    config_.gcTriggerCells = 4;
  }
  entries_.resize(config_.tableSize);
  freeStack_.reserve(config_.tableSize);
  for (std::uint32_t id = config_.tableSize; id-- > 0;) {
    freeStack_.push_back(id);
  }
}

SmallMachine::Entry& SmallMachine::entry(std::uint32_t id) {
  if (id >= entries_.size()) throw SimulationError("SmallMachine: bad id");
  return entries_[id];
}

const SmallMachine::Entry& SmallMachine::entry(std::uint32_t id) const {
  if (id >= entries_.size()) throw SimulationError("SmallMachine: bad id");
  return entries_[id];
}

std::uint32_t SmallMachine::allocateEntry() {
  if (!ensureFree(1)) {
    throw SimulationError(
        "SmallMachine: LPT exhausted (nothing compressible, no cycles to "
        "recover) — size the table for the working set");
  }
  const std::uint32_t id = freeStack_.back();
  freeStack_.pop_back();
  entries_[id] = Entry{};
  entries_[id].inUse = true;
  ++inUse_;
  ++stats_.gets;
  stats_.peakEntriesInUse = std::max(stats_.peakEntriesInUse, inUse_);
  return id;
}

void SmallMachine::incRef(std::uint32_t id) {
  Entry& e = entry(id);
  if (!e.inUse) throw SimulationError("SmallMachine: incRef of free entry");
  ++e.refCount;
  ++stats_.refOps;
}

void SmallMachine::decRef(std::uint32_t id) {
  Entry& e = entry(id);
  if (!e.inUse) throw SimulationError("SmallMachine: decRef of free entry");
  if (e.refCount == 0) throw SimulationError("SmallMachine: rc underflow");
  --e.refCount;
  ++stats_.refOps;
  if (e.refCount == 0) freeEntry(id);
}

void SmallMachine::freeEntry(std::uint32_t id) {
  Entry& e = entries_[id];
  e.inUse = false;
  --inUse_;
  ++stats_.frees;
  freeStack_.push_back(id);
  if (e.hasFields) {
    // Release the field references (immediate policy: the lazy variant is
    // exercised by core::Lpt; here functional clarity wins).
    if (e.carField.isObject()) decRef(e.carField.id);
    if (e.cdrField.isObject()) decRef(e.cdrField.id);
  } else if (e.addr.isPointer()) {
    queueHeapFree(e.addr);
  }
}

void SmallMachine::queueHeapFree(HeapWord word) {
  if (usesCollector()) {
    // The structure is simply dropped; the collector finds it by not
    // finding it (unreachable from the table's address words).
    return;
  }
  freeQueue_.push_back(word.payload);
  stats_.freeQueueHighWater =
      std::max(stats_.freeQueueHighWater, freeQueue_.size());
  // "The queue size could be limited as a means of flow control" — when
  // it fills, the heap controller services a batch.
  if (freeQueue_.size() > config_.freeQueueLimit) {
    const std::size_t batch = freeQueue_.size() / 2;
    for (std::size_t i = 0; i < batch; ++i) {
      heap_->freeObject(freeQueue_.front());
      freeQueue_.pop_front();
      ++stats_.heapFreesServiced;
    }
  }
}

bool SmallMachine::usesCollector() const {
  return config_.gcPolicy == gc::Policy::kMarkSweep ||
         config_.gcPolicy == gc::Policy::kGenerational ||
         config_.gcPolicy == gc::Policy::kIncremental;
}

void SmallMachine::serviceAllHeapFrees() {
  if (config_.gcPolicy == gc::Policy::kIncremental) {
    // The bounded-pause contract holds even for the shutdown sweep:
    // finish any in-flight cycle, then run one fresh complete cycle
    // (current roots, so everything dropped since is reclaimed), all in
    // gcStepBudget-sized slices.
    while (heap_->gcActive()) collectHeapStep(config_.gcStepBudget);
    while (!collectHeapStep(config_.gcStepBudget)) {
    }
    return;
  }
  if (usesCollector()) {
    collectHeapGarbage();
    return;
  }
  while (!freeQueue_.empty()) {
    heap_->freeObject(freeQueue_.front());
    freeQueue_.pop_front();
    ++stats_.heapFreesServiced;
  }
}

std::vector<HeapWord> SmallMachine::heapRoots() const {
  std::vector<HeapWord> roots;
  for (const Entry& e : entries_) {
    if (e.inUse && !e.hasFields && e.addr.isPointer()) {
      roots.push_back(e.addr);
    }
  }
  return roots;
}

void SmallMachine::recordCollection(
    const heap::HeapBackend::CollectResult& result,
    std::uint64_t touchesBefore) {
  const std::uint64_t pause = heap_->stats().touches() - touchesBefore;
  ++gcStats_.collections;
  gcStats_.cellsReclaimed += result.reclaimed;
  gcStats_.cellsTraced += result.traced;
  gcStats_.heapTouches += pause;
  gcStats_.totalPause += pause;
  if (pause > gcStats_.maxPause) gcStats_.maxPause = pause;
}

std::uint64_t SmallMachine::collectHeapGarbage() {
  std::uint64_t reclaimed = 0;
  if (heap_->gcActive()) {
    // Finish the in-flight incremental cycle (counted as one unbounded
    // slice) so the fresh collection below traces current liveness
    // rather than the stale mark snapshot.
    const std::uint64_t touchesBefore = heap_->stats().touches();
    heap::HeapBackend::CollectResult finish;
    heap_->gcStep(0, finish);
    recordCollection(finish, touchesBefore);
    ++gcStats_.fullCycles;
    reclaimed += finish.reclaimed;
  }
  const std::vector<HeapWord> roots = heapRoots();
  const std::uint64_t touchesBefore = heap_->stats().touches();
  const heap::HeapBackend::CollectResult result =
      heap_->collectGarbage(roots);
  recordCollection(result, touchesBefore);
  if (config_.gcPolicy == gc::Policy::kIncremental) ++gcStats_.fullCycles;
  gcFloorLive_ = heap_->cellsLive();
  return reclaimed + result.reclaimed;
}

std::uint64_t SmallMachine::collectHeapMinor() {
  const std::vector<HeapWord> roots = heapRoots();
  const std::uint64_t youngBefore = heap_->youngCells();
  const std::uint64_t touchesBefore = heap_->stats().touches();
  const heap::HeapBackend::CollectResult result =
      heap_->collectYoung(roots);
  recordCollection(result, touchesBefore);
  ++gcStats_.minorCollections;
  // Young cells the cycle did not reclaim were promoted (an upper bound:
  // young cells the machine already freed through split are skipped by
  // the sweep and counted here too).
  gcStats_.cellsPromoted += youngBefore - result.reclaimed;
  return result.reclaimed;
}

bool SmallMachine::collectHeapStep(std::uint64_t touchBudget) {
  const std::uint64_t touchesBefore = heap_->stats().touches();
  if (!heap_->gcActive()) {
    // The root scan is part of the first slice's pause.
    heap_->gcBegin(heapRoots());
  }
  heap::HeapBackend::CollectResult result;
  const bool done = heap_->gcStep(touchBudget, result);
  recordCollection(result, touchesBefore);
  if (done) {
    ++gcStats_.fullCycles;
    gcFloorLive_ = heap_->cellsLive();
  }
  return done;
}

void SmallMachine::maybeCollectHeap() {
  const std::uint64_t live = heap_->cellsLive();
  // Full collections arm on occupancy, with an anti-thrash guard: wait
  // for a quarter-trigger of growth past the last collection's floor.
  const bool fullArmed = live >= config_.gcTriggerCells &&
                         live >= gcFloorLive_ + config_.gcTriggerCells / 4;
  switch (config_.gcPolicy) {
    case gc::Policy::kMarkSweep:
      if (fullArmed) collectHeapGarbage();
      return;
    case gc::Policy::kGenerational:
      // Minor collections run on nursery fill; occasional full
      // collections reclaim what floated into the old generation.
      if (fullArmed) {
        collectHeapGarbage();
      } else if (heap_->youngCells() >= config_.gcTriggerCells / 4) {
        collectHeapMinor();
      }
      return;
    case gc::Policy::kIncremental:
      // One bounded slice per safepoint while a cycle is in flight;
      // otherwise arm a new cycle on the full-collection trigger.
      if (heap_->gcActive() || fullArmed) {
        collectHeapStep(config_.gcStepBudget);
      }
      return;
    default:
      return;
  }
}

bool SmallMachine::ensureFree(std::uint32_t needed) {
  while (config_.tableSize - inUse_ < needed) {
    const std::uint64_t merged =
        compress(config_.compression != CompressionPolicy::kCompressOne);
    if (merged > 0) {
      ++stats_.pseudoOverflows;
      continue;
    }
    ++stats_.cycleRecoveries;
    if (recoverCycles() == 0) return false;
  }
  return true;
}

std::uint64_t SmallMachine::recoverCycles() {
  for (Entry& e : entries_) e.mark = false;
  std::vector<std::uint32_t> work = epRefs_.sortedIds();
  while (!work.empty()) {
    const std::uint32_t id = work.back();
    work.pop_back();
    Entry& e = entry(id);
    if (!e.inUse || e.mark) continue;
    e.mark = true;
    if (e.hasFields) {
      if (e.carField.isObject()) work.push_back(e.carField.id);
      if (e.cdrField.isObject()) work.push_back(e.cdrField.id);
    }
  }
  std::uint64_t reclaimed = 0;
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    Entry& e = entries_[id];
    if (!e.inUse || e.mark) continue;
    // Sever object fields into fellow swept entries; release references
    // into survivors; queue any heap representation.
    const Entry snapshot = e;
    e.hasFields = false;
    e.carField = Value::nil();
    e.cdrField = Value::nil();
    e.refCount = 0;
    e.addr = HeapWord::nil();
    e.inUse = false;
    --inUse_;
    ++stats_.frees;
    freeStack_.push_back(id);
    ++reclaimed;
    if (snapshot.hasFields) {
      if (snapshot.carField.isObject() &&
          entries_[snapshot.carField.id].mark) {
        decRef(snapshot.carField.id);
      }
      if (snapshot.cdrField.isObject() &&
          entries_[snapshot.cdrField.id].mark) {
        decRef(snapshot.cdrField.id);
      }
    } else if (snapshot.addr.isPointer()) {
      queueHeapFree(snapshot.addr);
    }
  }
  return reclaimed;
}

SmallMachine::Value SmallMachine::wordToValue(HeapWord word) {
  switch (word.tag) {
    case HeapWord::Tag::kNil:
      return Value::nil();
    case HeapWord::Tag::kSymbol:
      return Value::symbol(word.payload);
    case HeapWord::Tag::kInteger:
      return Value::integer(static_cast<std::int64_t>(word.payload));
    case HeapWord::Tag::kPointer: {
      const std::uint32_t id = allocateEntry();
      Entry& e = entries_[id];
      e.addr = word;
      e.refCount = 1;  // owned by the caller (a parent field)
      Value value;
      value.kind = Value::Kind::kObject;
      value.id = id;
      return value;
    }
  }
  throw SimulationError("SmallMachine: unreachable word tag");
}

HeapWord SmallMachine::valueToWord(const Value& value) {
  switch (value.kind) {
    case Value::Kind::kNil:
      return HeapWord::nil();
    case Value::Kind::kSymbol:
      return HeapWord::symbol(value.payload);
    case Value::Kind::kInteger:
      return HeapWord::integer(static_cast<std::int64_t>(value.payload));
    case Value::Kind::kObject: {
      // The entry's heap representation moves into the caller's cell; the
      // entry itself is retired without releasing the heap structure
      // (ownership transfer, the inverse of wordToValue).
      Entry& e = entry(value.id);
      if (e.hasFields || !e.inUse || e.refCount != 1) {
        throw SimulationError("SmallMachine: valueToWord of unmergeable");
      }
      const HeapWord word = e.addr;
      e.inUse = false;
      e.refCount = 0;
      e.addr = HeapWord::nil();
      --inUse_;
      ++stats_.frees;
      freeStack_.push_back(value.id);
      return word;
    }
  }
  throw SimulationError("SmallMachine: unreachable value kind");
}

SmallMachine::Value SmallMachine::readList(const sexpr::Arena& arena,
                                           sexpr::NodeRef ref) {
  ++stats_.readLists;
  const HeapWord word = heap_->encode(arena, ref);
  if (!word.isPointer()) {
    // Atoms read in as immediates; no table entry needed.
    return wordToValue(word);
  }
  const std::uint32_t id = allocateEntry();
  Entry& e = entries_[id];
  e.addr = word;
  e.refCount = 1;  // the EP's reference
  epRefs_.increment(id);
  Value value;
  value.kind = Value::Kind::kObject;
  value.id = id;
  maybeCollectHeap();  // safepoint: the new structure is rooted by `e`
  return value;
}

void SmallMachine::retain(Value value) {
  if (!value.isObject()) return;
  incRef(value.id);
  epRefs_.increment(value.id);
}

void SmallMachine::release(Value value) {
  if (!value.isObject()) return;
  epRefs_.decrement(value.id);
  decRef(value.id);
  maybeCollectHeap();  // safepoint: any dropped structure is now garbage
}

void SmallMachine::split(std::uint32_t id) {
  if (!ensureFree(2)) {
    throw SimulationError("SmallMachine: LPT exhausted during split");
  }
  Entry& e = entry(id);
  if (e.hasFields) return;
  if (!e.addr.isPointer()) {
    throw SimulationError("SmallMachine: split of an atom object");
  }
  const heap::HeapBackend::SplitResult halves =
      heap_->split(e.addr.payload);
  // wordToValue may allocate entries, which cannot invalidate `e` (the
  // entry vector never grows), but re-fetch for clarity.
  const Value carValue = wordToValue(halves.car);
  const Value cdrValue = wordToValue(halves.cdr);
  Entry& parent = entry(id);
  parent.hasFields = true;
  parent.carField = carValue;
  parent.cdrField = cdrValue;
  parent.addr = HeapWord::nil();
  ++stats_.splits;
}

SmallMachine::Value SmallMachine::access(Value list, bool wantCar) {
  if (list.kind == Value::Kind::kNil) return Value::nil();  // (car nil)
  if (!list.isObject()) {
    throw EvalError("SmallMachine: car/cdr of an atom");
  }
  Entry& e = entry(list.id);
  if (!e.inUse) throw SimulationError("SmallMachine: access of free entry");
  if (!e.hasFields) {
    split(list.id);
  } else {
    ++stats_.hits;
  }
  const Value field =
      wantCar ? entry(list.id).carField : entry(list.id).cdrField;
  if (field.isObject()) {
    incRef(field.id);
    epRefs_.increment(field.id);
  }
  return field;
}

SmallMachine::Value SmallMachine::cons(Value head, Value tail) {
  ++stats_.conses;
  const std::uint32_t id = allocateEntry();
  Entry& e = entries_[id];
  e.hasFields = true;
  e.carField = head;
  e.cdrField = tail;
  if (head.isObject()) incRef(head.id);
  if (tail.isObject()) incRef(tail.id);
  e.refCount += 1;  // the EP's reference to the new cell
  ++stats_.refOps;
  epRefs_.increment(id);
  Value value;
  value.kind = Value::Kind::kObject;
  value.id = id;
  return value;
}

void SmallMachine::modify(Value list, Value value, bool isCar) {
  if (!list.isObject()) {
    throw EvalError("SmallMachine: rplac on an atom");
  }
  ++stats_.modifies;
  Entry& e = entry(list.id);
  if (!e.inUse) throw SimulationError("SmallMachine: rplac on free entry");
  if (!e.hasFields) split(list.id);
  Entry& target = entry(list.id);
  Value& field = isCar ? target.carField : target.cdrField;
  const Value old = field;
  field = value;
  if (value.isObject()) incRef(value.id);
  if (old.isObject()) decRef(old.id);
  maybeCollectHeap();  // safepoint: the displaced field may have died
}

sexpr::NodeRef SmallMachine::writeList(sexpr::Arena& arena,
                                       Value value) const {
  switch (value.kind) {
    case Value::Kind::kNil:
      return sexpr::kNilRef;
    case Value::Kind::kSymbol:
      return arena.symbol(static_cast<sexpr::SymbolId>(value.payload));
    case Value::Kind::kInteger:
      return arena.integer(static_cast<std::int64_t>(value.payload));
    case Value::Kind::kObject: {
      const Entry& e = entry(value.id);
      if (!e.inUse) {
        throw SimulationError("SmallMachine: writeList of free entry");
      }
      if (!e.hasFields) return heap_->decode(arena, e.addr);
      const sexpr::NodeRef head = writeList(arena, e.carField);
      const sexpr::NodeRef tail = writeList(arena, e.cdrField);
      return arena.cons(head, tail);
    }
  }
  throw SimulationError("SmallMachine: unreachable value kind");
}

bool SmallMachine::mergeableField(const Value& field) const {
  if (!field.isObject()) return true;  // atoms merge as immediate words
  const Entry& e = entry(field.id);
  return e.inUse && !e.hasFields && e.refCount == 1 &&
         epRefs_.count(field.id) == 0;
}

bool SmallMachine::compressiblePair(std::uint32_t id) const {
  const Entry& e = entry(id);
  if (!e.inUse || !e.hasFields) return false;
  // A shared object child would carry two references and fail the rc==1
  // test inside mergeableField; identical object ids cannot both be
  // mergeable.
  if (e.carField.isObject() && e.cdrField.isObject() &&
      e.carField.id == e.cdrField.id) {
    return false;
  }
  // Atoms-only pairs are foldable too: the merge frees no entry by
  // itself, but it converts this entry to an unsplit heap object, which
  // lets *its* parent merge on the next pass — the bottom-up cascade that
  // writes a cons chain's endo-structure back into the heap.
  return mergeableField(e.carField) && mergeableField(e.cdrField);
}

void SmallMachine::mergePair(std::uint32_t id) {
  Entry& e = entry(id);
  const HeapWord carWord = valueToWord(e.carField);
  const HeapWord cdrWord = valueToWord(e.cdrField);
  const heap::HeapBackend::CellRef cell = heap_->merge(carWord, cdrWord);
  Entry& parent = entry(id);
  parent.hasFields = false;
  parent.carField = Value::nil();
  parent.cdrField = Value::nil();
  parent.addr = HeapWord::pointer(cell);
  ++stats_.merges;
}

namespace {

/// `prefix` followed by the decimal `n` ("L12", "a40").
std::string tagged(char prefix, std::uint64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

std::string fieldToString(const SmallMachine::Value& value,
                          const sexpr::SymbolTable& symbols) {
  switch (value.kind) {
    case SmallMachine::Value::Kind::kNil:
      return "nil";
    case SmallMachine::Value::Kind::kSymbol:
      return symbols.name(static_cast<sexpr::SymbolId>(value.payload));
    case SmallMachine::Value::Kind::kInteger:
      return std::to_string(static_cast<std::int64_t>(value.payload));
    case SmallMachine::Value::Kind::kObject:
      return tagged('L', value.id);
  }
  return "?";
}

}  // namespace

std::string SmallMachine::dumpTable(const sexpr::SymbolTable& symbols) const {
  std::string out = "  ID   | CAR    | CDR    | REF | ADDR\n";
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.inUse) continue;
    std::string car = "-";
    std::string cdr = "-";
    std::string addr = "-";
    if (e.hasFields) {
      car = fieldToString(e.carField, symbols);
      cdr = fieldToString(e.cdrField, symbols);
    } else if (e.addr.isPointer()) {
      addr = tagged('a', e.addr.payload);
    }
    auto pad = [](std::string s, std::size_t w) {
      if (s.size() < w) s.append(w - s.size(), ' ');
      return s;
    };
    out += "  " + pad(tagged('L', id), 5) + "| " + pad(car, 7) +
           "| " + pad(cdr, 7) + "| " + pad(std::to_string(e.refCount), 4) +
           "| " + addr + "\n";
  }
  return out;
}

std::uint64_t SmallMachine::compress(bool all) {
  std::uint64_t merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      if (!compressiblePair(id)) continue;
      mergePair(id);
      ++merges;
      if (!all) return merges;
      progress = true;
    }
  }
  return merges;
}

}  // namespace small::core
