// Tests for the heap representations (Ch. 2's survey, §4.3.3 split/merge)
// and the address model.
#include <gtest/gtest.h>

#include <memory>

#include "heap/address_model.hpp"
#include "heap/backend.hpp"
#include "heap/cdar_coded.hpp"
#include "heap/conc.hpp"
#include "heap/linearization.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace small::heap {
namespace {

class HeapTest : public ::testing::Test {
 protected:
  sexpr::NodeRef read(std::string_view text) {
    sexpr::Reader reader(arena, symbols);
    return reader.readOne(text);
  }
  std::string show(sexpr::NodeRef ref) {
    return sexpr::print(arena, symbols, ref);
  }

  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
};

// --- representation-specific behaviour of the backends (the contract
//     shared by all three is pinned by BackendContract below) ---

TEST_F(HeapTest, TwoPointerEncodeDecodeRoundtrip) {
  // encode lays cells out in a fixed order: the dotted tail first (an
  // atom here, so no cell), then the heads from back to front, each head's
  // own structure before the cell that holds it.
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const HeapWord root = heap->encode(arena, read("((x) y . z)"));
  ASSERT_TRUE(root.isPointer());
  EXPECT_EQ(root.payload, 2u);
  EXPECT_EQ(heap->car(2).payload, 1u);  // (x) was laid down second
  EXPECT_EQ(heap->cdr(2).payload, 0u);  // (y . z) was laid down first
  EXPECT_EQ(show(heap->decode(arena, root)), "((x) y . z)");
}

TEST_F(HeapTest, TwoPointerUsesNPlusPCells) {
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  heap->encode(arena, read("(A B C (D E) F G)"));  // n=7, p=1
  EXPECT_EQ(heap->cellsAllocated(), 8u);
  EXPECT_EQ(heap->cellsLive(), 8u);
}

TEST_F(HeapTest, TwoPointerSplitReturnsHalvesAndFreesCell) {
  // "To split the object at address X the heap controller simply returns
  // the values of the 2 pointers and frees the list cell at address X."
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const HeapWord root = heap->encode(arena, read("(a b)"));
  ASSERT_TRUE(root.isPointer());
  const std::uint64_t liveBefore = heap->cellsLive();
  const HeapBackend::SplitResult halves = heap->split(root.payload);
  EXPECT_EQ(heap->cellsLive(), liveBefore - 1);
  EXPECT_EQ(halves.car.tag, HeapWord::Tag::kSymbol);
  EXPECT_TRUE(halves.cdr.isPointer());
}

TEST_F(HeapTest, TwoPointerMergeIsInverseOfSplit) {
  // The merge reuses the very cell the split freed (LIFO free list).
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const HeapWord root = heap->encode(arena, read("(a b c)"));
  const HeapBackend::SplitResult halves = heap->split(root.payload);
  const HeapBackend::CellRef merged = heap->merge(halves.car, halves.cdr);
  EXPECT_EQ(merged, root.payload);
  EXPECT_EQ(show(heap->decode(arena, HeapWord::pointer(merged))), "(a b c)");
}

TEST_F(HeapTest, TwoPointerFreeObjectReclaimsWholeStructure) {
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const HeapWord root = heap->encode(arena, read("(a (b c) (d (e)))"));
  const std::uint64_t reclaimed = heap->freeObject(root.payload);
  EXPECT_EQ(reclaimed, heap->cellsAllocated());
  EXPECT_EQ(heap->cellsLive(), 0u);
}

TEST_F(HeapTest, TwoPointerFreeListIsLifo) {
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const auto a = heap->allocate(HeapWord::nil(), HeapWord::nil());
  const auto b = heap->allocate(HeapWord::nil(), HeapWord::nil());
  heap->free(a);
  heap->free(b);
  // Most recently freed entry is reused first.
  EXPECT_EQ(heap->allocate(HeapWord::nil(), HeapWord::nil()), b);
  EXPECT_EQ(heap->allocate(HeapWord::nil(), HeapWord::nil()), a);
}

TEST_F(HeapTest, TwoPointerDoubleFreeThrows) {
  const auto heap = makeHeapBackend(HeapBackendKind::kTwoPointer);
  const auto cell = heap->allocate(HeapWord::nil(), HeapWord::nil());
  heap->free(cell);
  EXPECT_THROW(heap->free(cell), support::SimulationError);
  EXPECT_THROW(heap->car(cell), support::SimulationError);
  EXPECT_THROW(heap->setCdr(cell, HeapWord::nil()), support::SimulationError);
  EXPECT_THROW(heap->car(cell + 1), support::Error);  // never allocated
}

TEST_F(HeapTest, CdrCodedEncodeDecodeRoundtrip) {
  // A dotted list is a run whose last cell is cdr-normal, followed by the
  // cdr-error cell that holds the tail.
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  const HeapWord root = heap->encode(arena, read("(1 2 . 3)"));
  EXPECT_EQ(heap->cellsLive(), 3u);
  EXPECT_EQ(show(heap->decode(arena, root)), "(1 2 . 3)");
}

TEST_F(HeapTest, CdrCodedLinearListIsCompact) {
  // A flat n-element list occupies exactly n cells (vs n two-pointer cells
  // of twice the width).
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  heap->encode(arena, read("(a b c d e)"));
  EXPECT_EQ(heap->cellsLive(), 5u);
  EXPECT_EQ(heap->cellsAllocated(), 5u);
}

TEST_F(HeapTest, CdrCodedCdrOfRunNeedsNoExtraRead) {
  // Inside a run the cdr is address arithmetic: one read of the cell's
  // code, where a cdr-normal pair also reads the cdr word next door.
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  const HeapWord run = heap->encode(arena, read("(a b c)"));
  std::uint64_t before = heap->stats().reads;
  const HeapWord next = heap->cdr(run.payload);
  ASSERT_TRUE(next.isPointer());
  EXPECT_EQ(next.payload, run.payload + 1);
  EXPECT_EQ(heap->stats().reads - before, 1u);

  const HeapWord pair = heap->encode(arena, read("(a . b)"));
  before = heap->stats().reads;
  heap->cdr(pair.payload);
  EXPECT_EQ(heap->stats().reads - before, 2u);
}

TEST_F(HeapTest, CdrCodedRplacdForcesCopyOutAndForwarding) {
  // setCdr on a vectorized cell copies it out into a fresh cdr-normal
  // pair and leaves an invisible pointer behind, which every later access
  // through the old address pays as one extra read.
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  const HeapWord root = heap->encode(arena, read("(a b c)"));
  const HeapWord replacement = heap->encode(arena, read("(z)"));
  const std::uint64_t cellsBefore = heap->cellsAllocated();
  heap->setCdr(root.payload, replacement);
  EXPECT_EQ(heap->cellsAllocated(), cellsBefore + 2);
  const std::uint64_t before = heap->stats().reads;
  heap->car(root.payload);
  EXPECT_EQ(heap->stats().reads - before, 2u);
  EXPECT_EQ(show(heap->decode(arena, root)), "(a z)");
}

TEST_F(HeapTest, CdrCodedRplacdOnNormalPairIsInPlace) {
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  const HeapWord root = heap->encode(arena, read("(a . b)"));
  const std::uint64_t cellsBefore = heap->cellsAllocated();
  heap->setCdr(root.payload, HeapWord::nil());
  EXPECT_EQ(heap->cellsAllocated(), cellsBefore);
  const std::uint64_t before = heap->stats().reads;
  heap->car(root.payload);
  EXPECT_EQ(heap->stats().reads - before, 1u);  // no forwarding
  EXPECT_EQ(show(heap->decode(arena, root)), "(a)");
}

TEST_F(HeapTest, CdrCodedRplaca) {
  // The car word is full width in every cell: rplaca never copies out.
  const auto heap = makeHeapBackend(HeapBackendKind::kCdrCoded);
  const HeapWord root = heap->encode(arena, read("(a b)"));
  const std::uint64_t cellsBefore = heap->cellsAllocated();
  heap->setCar(root.payload, HeapWord::integer(9));
  EXPECT_EQ(heap->cellsAllocated(), cellsBefore);
  EXPECT_EQ(show(heap->decode(arena, root)), "(9 b)");
}

TEST_F(HeapTest, LinkedVectorIndirectionTradeoff) {
  // A list that fits in one vector costs one element per item; a longer
  // one pays an indirection element at the vector boundary, and the
  // access that crosses it pays one more read to follow it.
  const auto fits = makeHeapBackend(HeapBackendKind::kLinkedVector);
  fits->encode(arena, read("(a b c d e f g)"));
  EXPECT_EQ(fits->cellsLive(), 7u);

  const auto spills = makeHeapBackend(HeapBackendKind::kLinkedVector);
  const HeapWord root = spills->encode(arena, read("(a b c d e f g h)"));
  EXPECT_EQ(spills->cellsLive(), 9u);
  HeapWord cursor = root;
  for (int i = 0; i < 7; ++i) cursor = spills->cdr(cursor.payload);
  const std::uint64_t before = spills->stats().reads;
  EXPECT_EQ(show(spills->decode(arena, spills->car(cursor.payload))), "h");
  EXPECT_EQ(spills->stats().reads - before, 2u);
}

TEST_F(HeapTest, LinkedVectorNestedLists) {
  // Sublists encode before the run that holds them, and runs longer than
  // a vector continue through indirection elements.
  const auto heap = makeHeapBackend(HeapBackendKind::kLinkedVector);
  const sexpr::NodeRef list =
      read("(a (b c (d)) e (f g h i j k l m n o p q) r)");
  const HeapWord root = heap->encode(arena, list);
  EXPECT_TRUE(arena.equal(heap->decode(arena, root), list));
}

// --- CDAR-coded table ---

TEST_F(HeapTest, CdarCodesMatchThesisFigure210) {
  // Fig 2.10 tags (A B C (D E) F G) with car/cdr paths; the thesis pads
  // them to 6 bits and prints the steps leaf-first (A=000000, B=000001,
  // E=010111, ...). Our canonical form is the same path unpadded and
  // written root-first: B = cdr,car = "10", E = "111010".
  const CdarTable table = CdarTable::encode(arena, read("(A B C (D E) F G)"));
  const auto check = [&](const char* code, const char* symbol) {
    CdarCode path;
    for (const char* c = code; *c; ++c) {
      path.bits = (path.bits << 1) | (*c == '1' ? 1u : 0u);
      ++path.length;
    }
    const CdarTable::Entry* entry = table.probe(path);
    ASSERT_NE(entry, nullptr) << code;
    EXPECT_EQ(entry->tag, CdarTable::Entry::Tag::kSymbol) << code;
    EXPECT_EQ(symbols.name(static_cast<sexpr::SymbolId>(entry->payload)),
              symbol)
        << code;
  };
  check("0", "A");
  check("10", "B");
  check("110", "C");
  check("11100", "D");
  check("111010", "E");
  check("11110", "F");
  check("111110", "G");
}

TEST_F(HeapTest, CdarTableStoresOnlyLeaves) {
  // n symbols + (p + 1) nils for a proper list (the nil list terminators
  // are leaves of the binary tree).
  const CdarTable table = CdarTable::encode(arena, read("(A B C (D E) F G)"));
  EXPECT_EQ(table.size(), 7u + 2u);
}

TEST_F(HeapTest, CdarEncodeDecodeRoundtrip) {
  for (const char* text :
       {"(a b c)", "(a (b c) d)", "((x) ((y)) z)", "(1 2 3)"}) {
    const CdarTable table = CdarTable::encode(arena, read(text));
    EXPECT_TRUE(arena.equal(table.decode(arena), read(text))) << text;
  }
}

TEST_F(HeapTest, CdarCarCdrSplitTables) {
  const CdarTable table = CdarTable::encode(arena, read("((a b) c d)"));
  std::uint64_t copies = 0;
  const CdarTable carTable = table.car(&copies);
  const CdarTable cdrTable = table.cdr(&copies);
  EXPECT_TRUE(arena.equal(carTable.decode(arena), read("(a b)")));
  EXPECT_TRUE(arena.equal(cdrTable.decode(arena), read("(c d)")));
  // Splitting copied every entry exactly once — the §4.3.3.2 cost.
  EXPECT_EQ(copies, table.size());
}

TEST_F(HeapTest, CdarCodeStringRendering) {
  CdarCode path;
  path = path.prepend(true);   // last applied step becomes the root step
  path = path.prepend(false);
  EXPECT_EQ(path.toString(), "01");
  EXPECT_FALSE(path.firstStep());
  EXPECT_EQ(path.stripFirst().toString(), "1");
}

// --- address model ---

TEST(AddressModel, BumpAllocationIsContiguous) {
  AddressModel model;
  const auto a = model.allocateObject(5);
  const auto b = model.allocateObject(3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 5u);
  EXPECT_EQ(model.highWaterMark(), 8u);
}

TEST(AddressModel, ChildAddressesStayInBounds) {
  AddressModel model;
  support::Rng rng(21);
  const auto parent = model.allocateObject(100);
  for (int i = 0; i < 10000; ++i) {
    const auto child = model.childAddress(parent + 50, rng);
    EXPECT_LT(child, model.highWaterMark());
  }
}

TEST(AddressModel, ChildAddressesClusterNearParent) {
  AddressModel model;
  support::Rng rng(23);
  model.allocateObject(100000);
  const std::uint64_t parent = 50000;
  int near = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    const auto child = model.childAddress(parent, rng);
    const auto distance = child > parent ? child - parent : parent - child;
    if (distance <= 8) ++near;
  }
  EXPECT_GT(near, kDraws / 2);
}

// --- conc / tuple representation (§2.3.3.1) ---

TEST_F(HeapTest, ConcEncodeDecodeRoundtrip) {
  ConcHeap heap;
  for (const char* text :
       {"(a b c)", "(a (b c) d)", "((x) ((y z)) w)", "(1 2 3)", "nil"}) {
    const auto desc = heap.encode(arena, read(text));
    EXPECT_TRUE(arena.equal(heap.decode(arena, desc), read(text))) << text;
  }
}

TEST_F(HeapTest, ConcConcatenationIsOneCell) {
  // "in the conc representation the operation involves allocating a conc
  // cell and setting its fields to L1 and L2" — no copying, no mutation.
  ConcHeap heap;
  const auto a = heap.encode(arena, read("(a b c)"));
  const auto b = heap.encode(arena, read("(d e)"));
  const std::uint64_t wordsBefore = heap.elementWords();
  const auto joined = heap.conc(a, b);
  EXPECT_EQ(heap.elementWords(), wordsBefore);  // zero element copies
  EXPECT_EQ(heap.concCellCount(), 1u);
  EXPECT_EQ(heap.length(joined), 5u);
  EXPECT_TRUE(arena.equal(heap.decode(arena, joined), read("(a b c d e)")));
  // The operands are unchanged and still independently usable.
  EXPECT_TRUE(arena.equal(heap.decode(arena, a), read("(a b c)")));
}

TEST_F(HeapTest, ConcRandomAccessByIndex) {
  ConcHeap heap;
  const auto a = heap.encode(arena, read("(p q)"));
  const auto b = heap.encode(arena, read("(r s t)"));
  const auto joined = heap.conc(a, heap.conc(b, a));
  ASSERT_EQ(heap.length(joined), 7u);
  const auto at5 = heap.elementAt(joined, 5);  // second copy of a: "p q"
  EXPECT_EQ(at5.tag, ConcHeap::Element::Tag::kSymbol);
  EXPECT_EQ(symbols.name(static_cast<sexpr::SymbolId>(at5.payload)), "p");
  EXPECT_THROW(heap.elementAt(joined, 7), support::Error);
}

TEST_F(HeapTest, ConcRejectsDottedLists) {
  ConcHeap heap;
  EXPECT_THROW(heap.encode(arena, read("(a . b)")), support::EvalError);
  EXPECT_THROW(heap.encode(arena, read("sym")), support::EvalError);
}

// --- Clark linearization experiments (§3.2) ---

TEST(Linearization, SequentialBuildIsAdjacent) {
  // Consing a list back to front leaves every cdr pointing at the
  // neighbouring cell — Clark's "pointers point a small distance away".
  LinearizingHeap heap(ConsPolicy::kNaive);
  const auto head = heap.buildList(100);
  const auto report = heap.measureList(head);
  EXPECT_EQ(report.cdrPointers, 99u);
  EXPECT_DOUBLE_EQ(report.adjacentFraction(), 1.0);
  EXPECT_DOUBLE_EQ(report.magnitude.mean(), 1.0);
}

TEST(Linearization, NaiveAndCleverPoliciesTie) {
  // Clark: "a naive cons algorithm performed almost as well as a more
  // clever one" — an inherent property, not allocator magic.
  for (const ConsPolicy policy : {ConsPolicy::kNaive, ConsPolicy::kClever}) {
    LinearizingHeap heap(policy);
    const auto head = heap.buildList(500);
    EXPECT_DOUBLE_EQ(heap.measureList(head).adjacentFraction(), 1.0);
  }
}

TEST(Linearization, LinearizePreservesContentAndOrder) {
  LinearizingHeap heap(ConsPolicy::kNaive);
  auto head = heap.buildList(50, 1000);
  head = heap.linearize(head);
  // Content intact, every cdr distance exactly +1.
  auto cursor = head;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(heap.car(cursor).payload, 1000u + static_cast<unsigned>(i));
    const auto next = heap.cdr(cursor);
    if (i < 49) {
      ASSERT_TRUE(next.isPointer);
      EXPECT_EQ(next.payload, cursor + 1u);
      cursor = static_cast<LinearizingHeap::CellRef>(next.payload);
    } else {
      EXPECT_FALSE(next.isPointer);
    }
  }
  EXPECT_DOUBLE_EQ(heap.measureList(head).distanceOneFraction(), 1.0);
}

TEST(Linearization, LinearizeFreesOldCells) {
  LinearizingHeap heap(ConsPolicy::kNaive);
  auto head = heap.buildList(40);
  const auto liveBefore = heap.cellsLive();
  head = heap.linearize(head);
  EXPECT_EQ(heap.cellsLive(), liveBefore);  // copied then freed: net zero
}

TEST(Linearization, SplicesErodeLinearizationSlowly) {
  // Clark: "once a list was linearized it tended to stay fairly well
  // linearized" — k splices break at most 2k of the n-1 links.
  LinearizingHeap heap(ConsPolicy::kNaive);
  auto head = heap.buildList(200);
  head = heap.linearize(head);
  support::Rng rng(3);
  for (int edit = 0; edit < 10; ++edit) {
    auto cursor = head;
    for (std::uint64_t h = rng.below(150); h-- > 0;) {
      const auto next = heap.cdr(cursor);
      if (!next.isPointer) break;
      cursor = static_cast<LinearizingHeap::CellRef>(next.payload);
    }
    const auto spliced = heap.cons(LinearizingHeap::Word::atom(1),
                                   heap.cdr(cursor));
    heap.setCdr(cursor, LinearizingHeap::Word::pointer(spliced));
  }
  EXPECT_GT(heap.measureList(head).distanceOneFraction(), 0.85);
}

TEST(Linearization, DoubleFreeAndBadCellThrow) {
  LinearizingHeap heap(ConsPolicy::kNaive);
  const auto cell = heap.cons(LinearizingHeap::Word::atom(1),
                              LinearizingHeap::Word::atom(2));
  heap.free(cell);
  EXPECT_THROW(heap.free(cell), support::Error);
  EXPECT_THROW(heap.car(cell), support::Error);
  EXPECT_THROW(heap.car(12345), support::Error);
}

// --- unified backend contract: every HeapBackend must satisfy the same
//     observable semantics, whatever the physical layout ---

class BackendContract : public ::testing::TestWithParam<HeapBackendKind> {
 protected:
  sexpr::NodeRef read(std::string_view text) {
    sexpr::Reader reader(arena, symbols);
    return reader.readOne(text);
  }
  std::string show(sexpr::NodeRef ref) {
    return sexpr::print(arena, symbols, ref);
  }
  std::unique_ptr<HeapBackend> make() { return makeHeapBackend(GetParam()); }

  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
};

TEST_P(BackendContract, EncodeDecodeRoundtrip) {
  const auto heap = make();
  for (const char* text :
       {"(a b c)", "(a (b c) d)", "((deep (nest (ing))))", "(1 -2 3)",
        "(a . b)", "(a b . c)", "(a (b . c) d)", "nil", "(x)",
        "(a b c d e f g h i j k l m)"}) {
    const HeapWord root = heap->encode(arena, read(text));
    EXPECT_TRUE(arena.equal(heap->decode(arena, root), read(text)))
        << heap->name() << ": " << text;
  }
}

TEST_P(BackendContract, AllocateReadWriteFree) {
  const auto heap = make();
  const auto cell = heap->allocate(HeapWord::integer(1), HeapWord::nil());
  EXPECT_EQ(heap->car(cell).payload, 1u);
  heap->setCar(cell, HeapWord::integer(2));
  EXPECT_EQ(heap->car(cell).payload, 2u);
  EXPECT_GT(heap->cellsLive(), 0u);
  heap->free(cell);
  EXPECT_EQ(heap->cellsLive(), 0u);
  EXPECT_GE(heap->stats().writes, 1u);
  EXPECT_GE(heap->stats().reads, 2u);
}

TEST_P(BackendContract, SplitHandsBackFieldsAndFreesTheCell) {
  const auto heap = make();
  const HeapWord root = heap->encode(arena, read("(a b c)"));
  ASSERT_TRUE(root.isPointer());
  const auto before = heap->cellsLive();
  const HeapBackend::SplitResult halves = heap->split(root.payload);
  EXPECT_EQ(heap->stats().splits, 1u);
  EXPECT_LT(heap->cellsLive(), before) << heap->name();
  // The halves survive the split: car is the symbol a, cdr decodes to the
  // rest of the list.
  EXPECT_EQ(halves.car.tag, HeapWord::Tag::kSymbol);
  EXPECT_EQ(show(heap->decode(arena, halves.cdr)), "(b c)") << heap->name();
}

TEST_P(BackendContract, MergeRebuildsACell) {
  const auto heap = make();
  const HeapWord tail = heap->encode(arena, read("(b c)"));
  const auto cell =
      heap->merge(heap->encode(arena, read("a")), tail);
  EXPECT_EQ(heap->stats().merges, 1u);
  EXPECT_EQ(show(heap->decode(arena, HeapWord::pointer(cell))), "(a b c)")
      << heap->name();
}

TEST_P(BackendContract, SetCdrRewritesTheTail) {
  const auto heap = make();
  // Exercises the copy-out path on cdr-coded / linked-vector layouts: the
  // encoded spine stores cdrs implicitly, so rplacd must preserve object
  // identity through a forwarding mechanism.
  const HeapWord root = heap->encode(arena, read("(a b c d)"));
  const HeapWord tail = heap->encode(arena, read("(z)"));
  heap->setCdr(root.payload, tail);
  EXPECT_EQ(show(heap->decode(arena, root)), "(a z)") << heap->name();
  // A second rewrite through the (possibly forwarded) cell still works.
  heap->setCdr(root.payload, HeapWord::nil());
  EXPECT_EQ(show(heap->decode(arena, root)), "(a)") << heap->name();
}

TEST_P(BackendContract, FreeObjectReclaimsEverything) {
  const auto heap = make();
  const HeapWord root = heap->encode(arena, read("(a (b (c d) e) (f) g)"));
  EXPECT_GT(heap->cellsLive(), 0u);
  const auto reclaimed = heap->freeObject(root.payload);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(heap->cellsLive(), 0u) << heap->name();
  // Every physical cell laid down came back (frees counts cells, allocs
  // counts conses, so compare through the live-cell ledger).
  EXPECT_GT(heap->stats().frees, 0u) << heap->name();
}

TEST_P(BackendContract, FreedCellsAreRecycled) {
  const auto heap = make();
  const HeapWord first = heap->encode(arena, read("(a b c d e)"));
  heap->freeObject(first.payload);
  EXPECT_EQ(heap->cellsLive(), 0u);
  // Vectorized encodes may need fresh contiguous space, but a plain cons
  // must drain the free pool before extending the heap.
  const auto before = heap->cellsAllocated();
  const auto cell = heap->allocate(HeapWord::integer(1), HeapWord::nil());
  EXPECT_EQ(heap->cellsAllocated(), before) << heap->name();
  heap->free(cell);
  EXPECT_GE(heap->stats().peakLiveCells, heap->cellsLive());
}

TEST_P(BackendContract, DoubleFreeThrows) {
  const auto heap = make();
  const auto cell = heap->allocate(HeapWord::integer(1), HeapWord::nil());
  heap->free(cell);
  EXPECT_THROW(heap->free(cell), support::Error) << heap->name();
}

TEST_P(BackendContract, StatsTrackTouches) {
  const auto heap = make();
  const HeapWord root = heap->encode(arena, read("(a b c)"));
  const auto baseline = heap->stats().touches();
  HeapWord cursor = root;
  while (cursor.isPointer()) cursor = heap->cdr(cursor.payload);
  EXPECT_GT(heap->stats().touches(), baseline) << heap->name();
  EXPECT_EQ(heap->stats().touches(),
            heap->stats().reads + heap->stats().writes);
}

TEST_P(BackendContract, IncrementalStepsMatchStopTheWorldLiveSet) {
  const auto heap = make();
  const HeapWord live = heap->encode(arena, read("(a (b c) d)"));
  heap->encode(arena, read("(x y z)"));  // garbage
  heap->gcBegin({live});
  HeapBackend::CollectResult result;
  std::uint64_t slices = 0;
  while (!heap->gcStep(4, result)) ++slices;
  EXPECT_GT(slices, 0u) << heap->name();  // genuinely ran in bounded slices
  EXPECT_GT(result.reclaimed, 0u) << heap->name();
  EXPECT_EQ(show(heap->decode(arena, live)), "(a (b c) d)") << heap->name();
  // The sliced cycle left exactly the stop-the-world live set: a full
  // pass right after finds nothing further to reclaim.
  EXPECT_EQ(heap->collectGarbage({live}).reclaimed, 0u) << heap->name();
}

TEST_P(BackendContract, RememberedSetKeepsOldToYoungEdgeLive) {
  const auto heap = make();
  heap->setYoungTracking(true);
  const HeapWord old = heap->encode(arena, read("(a b)"));
  heap->collectGarbage({old});  // completed cycle: promotes, clears young
  EXPECT_EQ(heap->youngCells(), 0u) << heap->name();
  const HeapWord young = heap->encode(arena, read("(c d)"));
  heap->encode(arena, read("(x)"));  // young garbage
  EXPECT_GT(heap->youngCells(), 0u) << heap->name();
  // Store the young structure into the old cell. The minor trace never
  // enters old cells, so without the write barrier's remembered set the
  // young list would be unreachable and swept.
  heap->setCdr(old.payload, young);
  const auto minor = heap->collectYoung({old});
  EXPECT_GT(minor.reclaimed, 0u) << heap->name();  // the (x) garbage
  EXPECT_EQ(show(heap->decode(arena, old)), "(a c d)") << heap->name();
  // A full pass reclaims the displaced (b) tail but nothing the minor
  // cycle promoted.
  heap->collectGarbage({old});
  EXPECT_EQ(show(heap->decode(arena, old)), "(a c d)") << heap->name();
}

TEST_P(BackendContract, MinorCollectionTreatsOldGenerationAsLive) {
  const auto heap = make();
  heap->setYoungTracking(true);
  const HeapWord oldLive = heap->encode(arena, read("(a b)"));
  const HeapWord oldDead = heap->encode(arena, read("(x y)"));
  heap->collectGarbage({oldLive, oldDead});  // promote both
  heap->encode(arena, read("(q)"));          // young garbage
  // oldDead is unreachable from the minor roots, but a minor cycle only
  // sweeps young cells: the old garbage floats to the next full pass.
  const auto minor = heap->collectYoung({oldLive});
  EXPECT_GT(minor.reclaimed, 0u) << heap->name();
  EXPECT_EQ(show(heap->decode(arena, oldDead)), "(x y)") << heap->name();
  const auto full = heap->collectGarbage({oldLive});
  EXPECT_GT(full.reclaimed, 0u) << heap->name();
  EXPECT_EQ(show(heap->decode(arena, oldLive)), "(a b)") << heap->name();
}

TEST_P(BackendContract, SatbBarrierSavesPointerStoredIntoBlackCell) {
  const auto heap = make();
  // R -> A -> W: the only path to W runs through A's cdr.
  const HeapWord w = heap->encode(arena, read("(w)"));
  const auto aCell = heap->merge(heap->encode(arena, read("a")), w);
  const auto rCell =
      heap->merge(heap->encode(arena, read("r")), HeapWord::pointer(aCell));
  const HeapWord root = HeapWord::pointer(rCell);
  heap->gcBegin({root});
  // One touch of budget traces exactly the root cell, leaving it black
  // with A gray.
  HeapBackend::CollectResult result;
  ASSERT_FALSE(heap->gcStep(1, result)) << heap->name();
  // Mutator runs mid-cycle: sever the only already-visible path to W,
  // then store W into the black root cell. Without the shade-on-
  // overwrite barrier the collector would never reach W and sweep it.
  heap->setCdr(aCell, HeapWord::nil());
  heap->setCar(rCell, w);
  while (!heap->gcStep(4, result)) {
  }
  EXPECT_EQ(show(heap->decode(arena, root)), "((w) a)") << heap->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContract, ::testing::ValuesIn(kAllHeapBackendKinds),
    [](const ::testing::TestParamInfo<HeapBackendKind>& info) {
      std::string name = heapBackendName(info.param);
      std::string out;
      for (const char c : name) {
        if (c == '-') continue;
        out += c;
      }
      return out;
    });

}  // namespace
}  // namespace small::heap
