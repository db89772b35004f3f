// Tests for the List Processor Table: free-stack behaviour (Fig 4.3),
// lazy vs recursive reclamation (§4.3.2.1), and cycle recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "small/lpt.hpp"

namespace small::core {
namespace {

TEST(Lpt, AllocateFreesInLifoOrder) {
  Lpt lpt(8, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  const EntryId b = lpt.allocate();
  EXPECT_NE(a, b);
  lpt.incRef(a);
  lpt.incRef(b);
  lpt.decRef(a);
  lpt.decRef(b);
  // Fig 4.3: the most recently freed entry is the first to be reused.
  EXPECT_EQ(lpt.allocate(), b);
  EXPECT_EQ(lpt.allocate(), a);
}

TEST(Lpt, InUseCountTracksAllocationAndFree) {
  Lpt lpt(4, ReclaimPolicy::kLazy);
  EXPECT_EQ(lpt.inUseCount(), 0u);
  const EntryId a = lpt.allocate();
  lpt.incRef(a);
  EXPECT_EQ(lpt.inUseCount(), 1u);
  lpt.decRef(a);
  EXPECT_EQ(lpt.inUseCount(), 0u);
}

TEST(Lpt, ExhaustionReturnsNoEntry) {
  Lpt lpt(2, ReclaimPolicy::kLazy);
  lpt.incRef(lpt.allocate());
  lpt.incRef(lpt.allocate());
  EXPECT_FALSE(lpt.hasFreeEntry());
  EXPECT_EQ(lpt.allocate(), kNoEntry);
}

TEST(Lpt, RefcountUnderflowThrows) {
  Lpt lpt(2, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  lpt.incRef(a);
  lpt.decRef(a);
  EXPECT_THROW(lpt.decRef(a), support::SimulationError);
}

TEST(Lpt, UseOfFreeEntryThrows) {
  Lpt lpt(2, ReclaimPolicy::kLazy);
  EXPECT_THROW(lpt.incRef(0), support::SimulationError);
  EXPECT_THROW(lpt.entry(99), support::SimulationError);
}

TEST(Lpt, LazyPolicyDefersChildDecrementUntilReuse) {
  Lpt lpt(8, ReclaimPolicy::kLazy);
  const EntryId parent = lpt.allocate();
  const EntryId carChild = lpt.allocate();
  const EntryId cdrChild = lpt.allocate();
  lpt.incRef(parent);
  lpt.incRef(carChild);  // from parent's car field
  lpt.incRef(cdrChild);
  lpt.entry(parent).car = carChild;
  lpt.entry(parent).cdr = cdrChild;

  lpt.decRef(parent);  // parent freed...
  EXPECT_EQ(lpt.inUseCount(), 2u);  // ...but the children survive
  EXPECT_TRUE(lpt.entry(carChild).inUse);

  // Reuse the freed entry: now the children get decremented and freed.
  const EntryId reused = lpt.allocate();
  EXPECT_EQ(reused, parent);
  EXPECT_EQ(lpt.inUseCount(), 1u);  // only the reused entry remains
  EXPECT_FALSE(lpt.entry(carChild).inUse);
  EXPECT_FALSE(lpt.entry(cdrChild).inUse);
  EXPECT_EQ(lpt.stats().lazyDecrements, 2u);
}

TEST(Lpt, RecursivePolicyDecrementsChildrenImmediately) {
  Lpt lpt(8, ReclaimPolicy::kRecursive);
  const EntryId parent = lpt.allocate();
  const EntryId child = lpt.allocate();
  lpt.incRef(parent);
  lpt.incRef(child);
  lpt.entry(parent).car = child;

  const std::uint64_t refopsBefore = lpt.stats().refOps;
  lpt.decRef(parent);
  EXPECT_FALSE(lpt.entry(child).inUse);  // freed in the same cascade
  EXPECT_EQ(lpt.inUseCount(), 0u);
  EXPECT_GE(lpt.stats().refOps - refopsBefore, 2u);
}

TEST(Lpt, RecursivePolicyCascadesDeep) {
  // A chain a -> b -> c -> d all freed by one root decrement — the
  // unbounded-work case the lazy policy avoids.
  Lpt lpt(8, ReclaimPolicy::kRecursive);
  EntryId chain[4];
  for (auto& id : chain) {
    id = lpt.allocate();
    lpt.incRef(id);
  }
  for (int i = 0; i < 3; ++i) {
    lpt.entry(chain[i]).car = chain[i + 1];
    lpt.incRef(chain[i + 1]);
  }
  for (int i = 1; i < 4; ++i) lpt.decRef(chain[i]);  // drop EP refs
  EXPECT_EQ(lpt.inUseCount(), 4u);  // internal refs keep them alive
  lpt.decRef(chain[0]);
  EXPECT_EQ(lpt.inUseCount(), 0u);
}

TEST(Lpt, MaxRefCountTracked) {
  Lpt lpt(4, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  for (int i = 0; i < 7; ++i) lpt.incRef(a);
  EXPECT_EQ(lpt.stats().maxRefCount, 7u);
}

TEST(Lpt, StackBitHoldsEntryAliveInSplitMode) {
  Lpt lpt(4, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  lpt.setStackBit(a, true);
  EXPECT_TRUE(lpt.entry(a).inUse);
  // Internal count is zero but the stack bit pins it.
  lpt.incRef(a);
  lpt.decRef(a);
  EXPECT_TRUE(lpt.entry(a).inUse);
  lpt.setStackBit(a, false);
  EXPECT_FALSE(lpt.entry(a).inUse);
  // Only the clearing transition costs a message (§5.2.4).
  EXPECT_EQ(lpt.stats().stackBitMessages, 1u);
}

TEST(Lpt, CycleRecoveryReclaimsUnreachableCycles) {
  Lpt lpt(8, ReclaimPolicy::kLazy);
  // Build a 2-cycle: a.car = b, b.car = a, each holding one internal ref.
  const EntryId a = lpt.allocate();
  const EntryId b = lpt.allocate();
  lpt.entry(a).car = b;
  lpt.entry(b).car = a;
  lpt.incRef(a);
  lpt.incRef(b);
  // And one externally referenced entry.
  const EntryId rooted = lpt.allocate();
  lpt.incRef(rooted);

  const std::uint64_t reclaimed = lpt.recoverCycles({rooted});
  EXPECT_EQ(reclaimed, 2u);
  EXPECT_FALSE(lpt.entry(a).inUse);
  EXPECT_FALSE(lpt.entry(b).inUse);
  EXPECT_TRUE(lpt.entry(rooted).inUse);
}

TEST(Lpt, CycleRecoveryKeepsEverythingReachable) {
  Lpt lpt(8, ReclaimPolicy::kLazy);
  const EntryId root = lpt.allocate();
  const EntryId child = lpt.allocate();
  lpt.incRef(root);
  lpt.incRef(child);
  lpt.entry(root).car = child;
  EXPECT_EQ(lpt.recoverCycles({root}), 0u);
  EXPECT_TRUE(lpt.entry(child).inUse);
}

TEST(Lpt, UnderflowAfterStackBitFreeAlsoThrows) {
  // The stack-bit free path must leave the entry as dead as a refcount
  // free does: any further count traffic is underflow/use-after-free.
  Lpt lpt(4, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  lpt.setStackBit(a, true);
  lpt.setStackBit(a, false);  // count already 0 -> freed here
  EXPECT_FALSE(lpt.entry(a).inUse);
  EXPECT_THROW(lpt.decRef(a), support::SimulationError);
  EXPECT_THROW(lpt.setStackBit(a, true), support::SimulationError);
}

TEST(Lpt, StackBitClearWithLiveCountDoesNotFree) {
  Lpt lpt(4, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  lpt.incRef(a);
  lpt.setStackBit(a, true);
  lpt.setStackBit(a, false);  // internal count still 1 -> stays live
  EXPECT_TRUE(lpt.entry(a).inUse);
  EXPECT_EQ(lpt.stats().stackBitMessages, 1u);
  lpt.decRef(a);
  EXPECT_FALSE(lpt.entry(a).inUse);
}

TEST(Lpt, RedundantStackBitSetIsFreeOfMessages) {
  Lpt lpt(4, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  lpt.incRef(a);
  lpt.setStackBit(a, true);
  lpt.setStackBit(a, true);   // no transition
  lpt.setStackBit(a, false);
  lpt.setStackBit(a, false);  // no transition
  EXPECT_EQ(lpt.stats().stackBitMessages, 1u);
}

TEST(Lpt, CycleRecoveryTreatsLazyFreeStackEdgesAsRoots) {
  // Under the lazy policy a freed entry keeps its car/cdr edges (and the
  // counts they represent) until reuse. Cycle recovery must treat those
  // deferred edges as mark roots: sweeping their targets would double-free
  // when the freed entry is later reallocated and lazily decrements them.
  Lpt lpt(8, ReclaimPolicy::kLazy);
  const EntryId parent = lpt.allocate();
  const EntryId child = lpt.allocate();
  lpt.incRef(parent);
  lpt.incRef(child);  // held only through parent's car edge
  lpt.entry(parent).car = child;
  lpt.decRef(parent);  // parent freed; child's count deferred on free stack
  EXPECT_FALSE(lpt.entry(parent).inUse);
  EXPECT_TRUE(lpt.entry(child).inUse);

  // No external roots at all — yet the child must survive, because the
  // free-stack edge still owns a reference to it.
  EXPECT_EQ(lpt.recoverCycles({}), 0u);
  EXPECT_TRUE(lpt.entry(child).inUse);

  // Reuse then releases the deferred reference and frees the child
  // without any underflow.
  const EntryId reused = lpt.allocate();
  EXPECT_EQ(reused, parent);
  EXPECT_FALSE(lpt.entry(child).inUse);
  EXPECT_EQ(lpt.inUseCount(), 1u);
}

TEST(Lpt, CycleRecoveryReleasesSweptEdgesIntoSurvivors) {
  // A dead cycle pointing into a rooted entry: sweeping the cycle must
  // decrement the survivor exactly once per severed edge.
  Lpt lpt(8, ReclaimPolicy::kLazy);
  const EntryId a = lpt.allocate();
  const EntryId b = lpt.allocate();
  const EntryId rooted = lpt.allocate();
  lpt.incRef(a);
  lpt.incRef(b);
  lpt.entry(a).car = b;
  lpt.entry(b).car = a;
  lpt.incRef(rooted);      // external root
  lpt.entry(a).cdr = rooted;
  lpt.incRef(rooted);      // the cycle's edge into the survivor
  EXPECT_EQ(lpt.recoverCycles({rooted}), 2u);
  EXPECT_TRUE(lpt.entry(rooted).inUse);
  EXPECT_EQ(lpt.entry(rooted).refCount, 1u);  // only the external root left
}

TEST(Lpt, ZeroSizeRejected) {
  EXPECT_THROW(Lpt(0, ReclaimPolicy::kLazy), support::SimulationError);
}

// Property sweep: random inc/dec sequences never corrupt the table across
// both reclaim policies.
class LptFuzz
    : public ::testing::TestWithParam<std::tuple<ReclaimPolicy, int>> {};

TEST_P(LptFuzz, RandomOperationsPreserveInvariants) {
  const auto [policy, seed] = GetParam();
  Lpt lpt(32, policy);
  std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<EntryId> live;  // entries we hold an external ref on
  for (int step = 0; step < 5000; ++step) {
    const auto op = next() % 3;
    if (op == 0 && lpt.hasFreeEntry()) {
      const EntryId id = lpt.allocate();
      ASSERT_NE(id, kNoEntry);
      lpt.incRef(id);
      live.push_back(id);
    } else if (op == 1 && !live.empty()) {
      const std::size_t i = next() % live.size();
      lpt.decRef(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (op == 2 && live.size() >= 2) {
      // Link a random pair through a car field if unset.
      const EntryId parent = live[next() % live.size()];
      const EntryId child = live[next() % live.size()];
      if (lpt.entry(parent).car == kNoEntry && parent != child) {
        lpt.entry(parent).car = child;
        lpt.incRef(child);
      }
    }
    ASSERT_LE(lpt.inUseCount(), 32u);
  }
  // Every externally held entry must still be live.
  for (const EntryId id : live) {
    EXPECT_TRUE(lpt.entry(id).inUse);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LptFuzz,
    ::testing::Combine(::testing::Values(ReclaimPolicy::kLazy,
                                         ReclaimPolicy::kRecursive),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(LptIteration, ForEachInUseVisitsAscendingLiveIds) {
  // Table size 20 straddles flag-word boundaries (padded to 24), so the
  // scan exercises both the byte-wise head and the word-skipping body.
  Lpt lpt(20, ReclaimPolicy::kLazy);
  std::vector<EntryId> held;
  for (int i = 0; i < 20; ++i) {
    const EntryId id = lpt.allocate();
    lpt.incRef(id);
    held.push_back(id);
  }
  // Free a scattered subset, including both ends and a full word's worth.
  for (const EntryId id : {0u, 1u, 5u, 8u, 9u, 10u, 11u, 12u, 13u, 14u,
                           15u, 19u}) {
    lpt.decRef(id);
  }
  std::vector<EntryId> visited;
  lpt.forEachInUse([&](EntryId id) { visited.push_back(id); });
  EXPECT_EQ(visited, (std::vector<EntryId>{2, 3, 4, 6, 7, 16, 17, 18}));

  std::vector<EntryId> unordered;
  lpt.forEachInUseUnordered([&](EntryId id) { unordered.push_back(id); });
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, visited);
}

TEST(LptIteration, EmptyAndFullTables) {
  Lpt lpt(9, ReclaimPolicy::kLazy);
  EXPECT_EQ(lpt.firstInUse(), kNoEntry);
  std::vector<EntryId> all;
  for (int i = 0; i < 9; ++i) lpt.incRef(lpt.allocate());
  lpt.forEachInUse([&](EntryId id) { all.push_back(id); });
  EXPECT_EQ(all, (std::vector<EntryId>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(lpt.nextInUse(9), kNoEntry);
  EXPECT_EQ(lpt.nextInUse(kNoEntry - 1), kNoEntry);
}

TEST(LptIteration, NextInUseSkipsFreedEntriesMidSweep) {
  // forEachInUse re-reads the flag byte, so entries freed by the callback
  // after the cursor are simply not visited.
  Lpt lpt(16, ReclaimPolicy::kLazy);
  for (int i = 0; i < 16; ++i) lpt.incRef(lpt.allocate());
  std::vector<EntryId> visited;
  lpt.forEachInUse([&](EntryId id) {
    visited.push_back(id);
    if (id % 3 == 0 && id + 1 < 16) lpt.decRef(id + 1);  // free the next id
  });
  EXPECT_EQ(visited,
            (std::vector<EntryId>{0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15}));
}

// Lazy fill: the table is built up to a high-water mark on demand. Ids at
// or above the mark are free, so every observable order must match the
// eager table, whose free stack starts as every id with low ids on top.

TEST(LptLazyFill, HandsOutIdsInTheEagerOrder) {
  constexpr std::uint32_t kSize = 40;
  Lpt lpt(kSize, ReclaimPolicy::kLazy);
  std::vector<EntryId> eager;  // the eager free stack, top at the back
  for (EntryId id = kSize; id-- > 0;) eager.push_back(id);
  std::vector<EntryId> held;
  std::uint64_t state = 88172645463325252ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int step = 0; step < 3000; ++step) {
    if (next() % 3 != 0 && !eager.empty()) {
      const EntryId id = lpt.allocate();
      ASSERT_EQ(id, eager.back()) << "step " << step;
      eager.pop_back();
      lpt.incRef(id);
      held.push_back(id);
    } else if (!held.empty()) {
      const std::size_t i = next() % held.size();
      lpt.decRef(held[i]);  // freed: pushed on top of the stack
      eager.push_back(held[i]);
      held[i] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(lpt.hasFreeEntry(), !eager.empty());
  }
}

TEST(LptLazyFill, ReadingAboveTheMarkLeavesAllocationAlone) {
  Lpt lpt(16, ReclaimPolicy::kLazy);
  EXPECT_EQ(lpt.allocate(), 0u);
  EXPECT_EQ(lpt.highWater(), 1u);
  // A never-allocated id reads as a fresh free entry through either
  // accessor; reading it does not consume the lazy tail.
  EXPECT_FALSE(lpt.entry(9).inUse);
  EXPECT_EQ(std::as_const(lpt).entry(12).car, kNoEntry);
  EXPECT_EQ(lpt.highWater(), 1u);
  EXPECT_THROW(lpt.incRef(9), support::SimulationError);
  EXPECT_THROW(lpt.decRef(12), support::SimulationError);
  EXPECT_THROW(lpt.setStackBit(15, true), support::SimulationError);
  for (EntryId want = 1; want < 16; ++want) EXPECT_EQ(lpt.allocate(), want);
  EXPECT_EQ(lpt.allocate(), kNoEntry);
}

TEST(LptLazyFill, ExhaustsExactlyAtSize) {
  Lpt lpt(5, ReclaimPolicy::kLazy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(lpt.hasFreeEntry());
    lpt.incRef(lpt.allocate());
  }
  EXPECT_EQ(lpt.highWater(), 5u);
  EXPECT_FALSE(lpt.hasFreeEntry());
  EXPECT_EQ(lpt.allocate(), kNoEntry);
  lpt.decRef(3);
  EXPECT_TRUE(lpt.hasFreeEntry());
  EXPECT_EQ(lpt.allocate(), 3u);
  EXPECT_EQ(lpt.allocate(), kNoEntry);
}

TEST(LptLazyFill, RecoveryWorksOnAHalfFilledTable) {
  Lpt lpt(64, ReclaimPolicy::kLazy);
  // A dead 2-cycle, a freed parent still owing its child's count, a
  // rooted entry and 27 unrooted ones; 32 of the 64 ids are never touched.
  const EntryId a = lpt.allocate();
  const EntryId b = lpt.allocate();
  const EntryId parent = lpt.allocate();
  const EntryId child = lpt.allocate();
  const EntryId rooted = lpt.allocate();
  // Each count is one reference: the cycle's edges, parent's edge to
  // child, and an external hold on everything else.
  for (const EntryId id : {a, b, parent, child, rooted}) lpt.incRef(id);
  for (int i = 0; i < 27; ++i) lpt.incRef(lpt.allocate());
  lpt.entry(a).car = b;
  lpt.entry(b).car = a;
  lpt.entry(parent).cdr = child;
  lpt.decRef(parent);  // freed, still owing its edge to child
  EXPECT_EQ(lpt.highWater(), 32u);

  EXPECT_EQ(lpt.settleLazyFrees(), 1u);  // parent's edge to child
  EXPECT_FALSE(lpt.entry(child).inUse);
  EXPECT_EQ(lpt.recoverCycles({rooted}), 2u + 27u);  // the cycle + unrooted
  EXPECT_TRUE(lpt.entry(rooted).inUse);
  EXPECT_EQ(lpt.inUseCount(), 1u);
  EXPECT_EQ(lpt.highWater(), 32u);  // recovery does not fill the table
  // Reuse drains the free stack (the sweep pushed the highest id last;
  // 31 ids are free below the mark) before the mark moves.
  EXPECT_EQ(lpt.allocate(), 31u);
  for (int i = 0; i < 30; ++i) lpt.allocate();
  EXPECT_EQ(lpt.highWater(), 32u);
  EXPECT_EQ(lpt.allocate(), 32u);
  EXPECT_EQ(lpt.highWater(), 33u);
}

TEST(LptLazyFill, NextInUseCrossesTheMark) {
  Lpt lpt(40, ReclaimPolicy::kLazy);
  for (int i = 0; i < 13; ++i) lpt.incRef(lpt.allocate());
  for (const EntryId id : {0u, 8u, 9u, 10u, 11u}) lpt.decRef(id);
  EXPECT_EQ(lpt.nextInUse(0), 1u);
  EXPECT_EQ(lpt.nextInUse(8), 12u);
  EXPECT_EQ(lpt.nextInUse(13), kNoEntry);  // the mark
  EXPECT_EQ(lpt.nextInUse(30), kNoEntry);  // beyond it
  // Refill the freed ids, then grow past the mark into a new flag word.
  for (int i = 0; i < 5 + 12; ++i) lpt.incRef(lpt.allocate());
  EXPECT_EQ(lpt.highWater(), 25u);
  std::vector<EntryId> all;
  lpt.forEachInUse([&](EntryId id) { all.push_back(id); });
  std::vector<EntryId> want(25);
  for (EntryId id = 0; id < 25; ++id) want[id] = id;
  EXPECT_EQ(all, want);
  EXPECT_EQ(lpt.nextInUse(25), kNoEntry);
}

}  // namespace
}  // namespace small::core
