// Unit tests for the gc subsystem: the three collectors over every heap
// backend, the safepoint/trigger discipline, and the script mutator.
#include <gtest/gtest.h>

#include <sstream>

#include "gc/collector.hpp"
#include "gc/script.hpp"
#include "heap/backend.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"
#include "trace/trace.hpp"

namespace small::gc {
namespace {

using heap::HeapWord;

HeapWord sym(std::uint32_t id) { return HeapWord::symbol(id); }

struct Combo {
  Policy policy;
  heap::HeapBackendKind kind;
};

std::vector<Combo> allCombos() {
  std::vector<Combo> combos;
  for (const Policy policy : kAllCollectorPolicies) {
    for (const heap::HeapBackendKind kind : heap::kAllHeapBackendKinds) {
      combos.push_back({policy, kind});
    }
  }
  return combos;
}

class CollectorTest : public ::testing::TestWithParam<Combo> {
 protected:
  std::unique_ptr<heap::HeapBackend> backend_ =
      heap::makeHeapBackend(GetParam().kind);
  Collector::Options options_;
  std::unique_ptr<Collector> makeCollectorUnderTest() {
    return makeCollector(GetParam().policy, *backend_, options_);
  }
};

TEST_P(CollectorTest, DropsUnrootedChainKeepsRootedOne) {
  const auto collector = makeCollectorUnderTest();
  collector->resizeRoots(2);

  // Two 3-cell chains; only the first is rooted when we collect.
  auto chain = [&](std::uint32_t tag) {
    Collector::CellRef tail = collector->cons(sym(tag), HeapWord::nil());
    for (int i = 0; i < 2; ++i) {
      tail = collector->cons(sym(tag),
                             HeapWord::pointer(tail));
    }
    return tail;
  };
  collector->setRoot(0, chain(1));
  collector->setRoot(1, chain(2));
  ASSERT_EQ(collector->liveCells(), 6u);

  collector->setRoot(1, Collector::kNull);
  collector->collect();

  EXPECT_EQ(collector->liveCells(), 3u);
  EXPECT_EQ(collector->stats().cellsReclaimed, 3u);
  EXPECT_EQ(collector->stats().collections, 1u);
  // The rooted chain survived intact: walk it through the backend.
  Collector::CellRef cell = collector->root(0);
  std::size_t length = 0;
  while (cell != Collector::kNull) {
    ++length;
    EXPECT_EQ(collector->car(cell).payload, 1u);
    const HeapWord next = collector->cdr(cell);
    cell = next.isPointer() ? next.payload : Collector::kNull;
  }
  EXPECT_EQ(length, 3u);
}

TEST_P(CollectorTest, SharedStructureSurvivesThroughEitherRoot) {
  const auto collector = makeCollectorUnderTest();
  collector->resizeRoots(2);
  const auto shared = collector->cons(sym(7), HeapWord::nil());
  collector->setRoot(
      0, collector->cons(sym(1), HeapWord::pointer(shared)));
  collector->setRoot(
      1, collector->cons(sym(2), HeapWord::pointer(shared)));
  collector->setRoot(0, Collector::kNull);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 2u);  // root 1's cell + the shared one
  const HeapWord tail = collector->cdr(collector->root(1));
  ASSERT_TRUE(tail.isPointer());
  EXPECT_EQ(collector->car(tail.payload).payload, 7u);
}

TEST_P(CollectorTest, ReclaimsCyclesOnceUnrooted) {
  const auto collector = makeCollectorUnderTest();
  collector->resizeRoots(1);
  const auto a = collector->cons(sym(1), HeapWord::nil());
  const auto b =
      collector->cons(sym(2),
                      HeapWord::pointer(a));
  collector->setCdr(a, HeapWord::pointer(b));
  collector->setRoot(0, a);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 2u);  // rooted cycle survives

  collector->setRoot(0, Collector::kNull);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 0u);
  EXPECT_EQ(collector->heap().cellsLive(), 0u);
}

TEST_P(CollectorTest, WriteBarrierKeepsReattachedCellAlive) {
  const auto collector = makeCollectorUnderTest();
  collector->resizeRoots(2);
  const auto keeper = collector->cons(sym(1), HeapWord::nil());
  const auto value = collector->cons(sym(9), HeapWord::nil());
  collector->setRoot(0, keeper);
  collector->setRoot(1, value);
  // Stash `value` inside the rooted cell, then drop its own root: only the
  // stored reference keeps it alive across the collection.
  collector->setCar(keeper,
                    HeapWord::pointer(value));
  collector->setRoot(1, Collector::kNull);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 2u);
  const HeapWord stored = collector->car(collector->root(0));
  ASSERT_TRUE(stored.isPointer());
  EXPECT_EQ(collector->car(stored.payload).payload, 9u);
}

TEST_P(CollectorTest, TriggerFiresAfterEnoughAllocations) {
  options_.triggerLiveCells = 32;
  const auto collector = makeCollectorUnderTest();
  collector->resizeRoots(1);
  EXPECT_FALSE(collector->shouldCollect());
  for (int i = 0; i < 64; ++i) {
    collector->cons(sym(1), HeapWord::nil());  // all garbage (unrooted)
  }
  EXPECT_TRUE(collector->shouldCollect());
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 0u);
  EXPECT_FALSE(collector->shouldCollect());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CollectorTest, ::testing::ValuesIn(allCombos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string name = policyName(info.param.policy);
      name += "_";
      name += heap::heapBackendName(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GcPolicy, NamesAndFactory) {
  EXPECT_STREQ(policyName(Policy::kNone), "refcount");
  EXPECT_STREQ(policyName(Policy::kMarkSweep), "mark-sweep");
  EXPECT_STREQ(policyName(Policy::kSemispace), "semispace");
  EXPECT_STREQ(policyName(Policy::kDeferredRc), "deferred-rc");
  EXPECT_STREQ(policyName(Policy::kGenerational), "generational");
  EXPECT_STREQ(policyName(Policy::kIncremental), "incremental");
  const auto backend = heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  EXPECT_THROW(makeCollector(Policy::kNone, *backend, {}), support::Error);
}

TEST(GcPolicy, DegenerateTriggerClampedToFour) {
  // triggerLiveCells = 0 would make shouldCollect fire at every
  // safepoint (and zero the quarter-growth re-arm guard); the Options
  // constructor clamps anything below 4 up to 4.
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  Collector::Options options;
  options.triggerLiveCells = 0;
  const auto collector =
      makeCollector(Policy::kMarkSweep, *backend, options);
  EXPECT_FALSE(collector->shouldCollect());
  collector->resizeRoots(1);
  collector->setRoot(0, collector->cons(sym(1), HeapWord::nil()));
  // One live cell: below the clamped trigger of 4, still quiet.
  EXPECT_FALSE(collector->shouldCollect());
  for (int i = 0; i < 3; ++i) collector->cons(sym(2), HeapWord::nil());
  EXPECT_TRUE(collector->shouldCollect());
}

TEST(GcPolicy, ReachabilityFingerprintDoesNotPerturbStats) {
  // reachableFrom / rootReachability are pure observers: the BFS walks
  // the heap through the stats-counting accessors, so the collector must
  // snapshot and restore the backend counters around it — otherwise
  // taking the live-set fingerprint would shift every later pause
  // measurement (pauses are heap-touch deltas).
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  const auto collector = makeCollector(Policy::kMarkSweep, *backend, {});
  collector->resizeRoots(1);
  Collector::CellRef tail = collector->cons(sym(1), HeapWord::nil());
  for (int i = 0; i < 7; ++i) {
    tail = collector->cons(sym(1), HeapWord::pointer(tail));
  }
  collector->setRoot(0, tail);

  const heap::HeapStats heapBefore = backend->stats();
  const GcStats gcBefore = collector->stats();
  const std::vector<std::uint64_t> reach = collector->rootReachability();
  ASSERT_EQ(reach.size(), 1u);
  EXPECT_EQ(reach[0], 8u);

  const heap::HeapStats& heapAfter = backend->stats();
  EXPECT_EQ(heapAfter.reads, heapBefore.reads);
  EXPECT_EQ(heapAfter.writes, heapBefore.writes);
  EXPECT_EQ(heapAfter.allocs, heapBefore.allocs);
  EXPECT_EQ(heapAfter.frees, heapBefore.frees);
  const GcStats& gcAfter = collector->stats();
  EXPECT_EQ(gcAfter.heapTouches, gcBefore.heapTouches);
  EXPECT_EQ(gcAfter.tableTouches, gcBefore.tableTouches);
  EXPECT_EQ(gcAfter.collections, gcBefore.collections);
}

TEST(Semispace, ForwardsRootsWhenCellsMove) {
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  const auto collector = makeSemispaceCollector(*backend, {});
  collector->resizeRoots(1);
  // Garbage first, then the survivor: after evacuation the survivor is a
  // different physical cell, and the root slot must have been rewritten.
  collector->cons(sym(1), HeapWord::nil());
  collector->cons(sym(2), HeapWord::nil());
  const auto survivor = collector->cons(sym(3), HeapWord::nil());
  collector->setRoot(0, survivor);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 1u);
  EXPECT_NE(collector->root(0), survivor);  // moved
  EXPECT_EQ(collector->car(collector->root(0)).payload, 3u);
}

TEST(DeferredRc, BoundedZctForcesCollection) {
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  Collector::Options options;
  options.triggerLiveCells = 1 << 20;  // never trigger by size
  options.zctLimit = 8;
  const auto collector = makeDeferredRcCollector(*backend, options);
  collector->resizeRoots(1);
  for (int i = 0; i < 8; ++i) {
    collector->cons(sym(1), HeapWord::nil());
  }
  EXPECT_FALSE(collector->shouldCollect());
  collector->cons(sym(1), HeapWord::nil());  // ninth zero-count entry
  EXPECT_TRUE(collector->shouldCollect());
  collector->collect();
  EXPECT_EQ(collector->stats().zctOverflows, 1u);
  EXPECT_GE(collector->stats().zctHighWater, 9u);
  EXPECT_EQ(collector->liveCells(), 0u);
}

TEST(DeferredRc, StoringAForeignCellThrows) {
  // The registry contract: every stored pointer names a cell allocated
  // through cons(). Deferred RC's count table is the check — a store of
  // any other cell, whether allocated behind the collector's back or past
  // the heap's cell store, must throw rather than index past the table.
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  const auto collector = makeDeferredRcCollector(*backend, {});
  const Collector::CellRef cell = collector->cons(sym(1), HeapWord::nil());
  const Collector::CellRef foreign = backend->allocate(sym(2), HeapWord::nil());
  EXPECT_ANY_THROW(collector->setCar(cell, HeapWord::pointer(foreign)));
  EXPECT_ANY_THROW(collector->setCdr(cell, HeapWord::pointer(1u << 20)));
}

TEST(DeferredRc, CountsBarrierAndDeferredWork) {
  const auto backend =
      heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
  const auto collector = makeDeferredRcCollector(*backend, {});
  collector->resizeRoots(1);
  const auto a = collector->cons(sym(1), HeapWord::nil());
  const auto b = collector->cons(sym(2), HeapWord::nil());
  collector->setRoot(0, a);
  collector->setCdr(a, HeapWord::pointer(b));
  EXPECT_GE(collector->stats().barrierOps, 1u);
  collector->setRoot(0, Collector::kNull);
  collector->collect();
  EXPECT_EQ(collector->liveCells(), 0u);
  EXPECT_GE(collector->stats().deferredDecrements, 1u);
}

// --- the script mutator ---

trace::Trace tinyTrace() {
  trace::Trace trace;
  trace.name = "tiny";
  const auto f = trace.internFunction("f");
  trace::Event enter;
  enter.kind = trace::EventKind::kFunctionEnter;
  enter.functionId = f;
  enter.argCount = 1;
  trace.append(enter);
  for (int i = 0; i < 40; ++i) {
    trace::Event event;
    event.kind = trace::EventKind::kPrimitive;
    event.primitive = i % 4 == 0   ? trace::Primitive::kRead
                      : i % 4 == 1 ? trace::Primitive::kCons
                      : i % 4 == 2 ? trace::Primitive::kCdr
                                   : trace::Primitive::kRplacd;
    trace::ObjectRecord result;
    result.fingerprint = 100 + static_cast<std::uint64_t>(i);
    result.n = 4;
    result.p = i % 8 == 0 ? 1 : 0;
    result.isList = true;
    event.result = result;
    trace::ObjectRecord arg = result;
    arg.fingerprint = 50 + static_cast<std::uint64_t>(i % 7);
    event.args.push_back(arg);
    trace.append(event);
  }
  trace::Event exit;
  exit.kind = trace::EventKind::kFunctionExit;
  exit.functionId = f;
  trace.append(exit);
  return trace;
}

TEST(Script, DerivationIsDeterministic) {
  const auto pre = trace::preprocess(tinyTrace());
  const Script a = scriptFromTrace(pre, {}, 42);
  const Script b = scriptFromTrace(pre, {}, 42);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].dst, b.ops[i].dst);
    EXPECT_EQ(a.ops[i].a, b.ops[i].a);
    EXPECT_EQ(a.ops[i].b, b.ops[i].b);
    EXPECT_EQ(a.ops[i].length, b.ops[i].length);
    EXPECT_EQ(a.ops[i].share, b.ops[i].share);
  }
  EXPECT_GT(a.allocationBound(), 0u);
}

TEST(Script, AllCollectorsAgreeOnFinalLiveSet) {
  const auto pre = trace::preprocess(tinyTrace());
  const Script script = scriptFromTrace(pre, {}, 7);

  std::vector<ScriptResult> results;
  for (const Combo& combo : allCombos()) {
    const auto backend = heap::makeHeapBackend(combo.kind);
    Collector::Options options;
    options.triggerLiveCells = 16;  // force collections mid-script
    const auto collector = makeCollector(combo.policy, *backend, options);
    results.push_back(runScript(*collector, script));
  }
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].finalLiveCells, results[0].finalLiveCells)
        << results[i].collectorName;
    EXPECT_EQ(results[i].rootReachable, results[0].rootReachable)
        << results[i].collectorName;
    EXPECT_GT(results[i].stats.collections, 0u);
  }
}

}  // namespace
}  // namespace small::gc
