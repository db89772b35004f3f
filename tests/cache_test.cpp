// Tests for the fully associative LRU comparison cache (§5.2.5).
#include <gtest/gtest.h>

#include "cache/lru_cache.hpp"
#include "cache/reference_lru.hpp"
#include "support/rng.hpp"

namespace small::cache {
namespace {

TEST(LruCache, HitAfterFill) {
  LruCache cache(4);
  EXPECT_FALSE(cache.access(10));
  EXPECT_TRUE(cache.access(10));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.access(1);
  cache.access(2);
  cache.access(1);  // 2 is now LRU
  cache.access(3);  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(3));
  EXPECT_FALSE(cache.access(2));
}

TEST(LruCache, CapacityIsRespected) {
  LruCache cache(8);
  for (std::uint64_t a = 0; a < 100; ++a) cache.access(a);
  EXPECT_EQ(cache.residentLines(), 8u);
}

TEST(LruCache, LineSizeGroupsNeighbours) {
  LruCache cache(4, /*lineSize=*/4);
  EXPECT_FALSE(cache.access(0));
  // Addresses 1-3 share the line: prefetched for free.
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(2));
  EXPECT_TRUE(cache.access(3));
  EXPECT_FALSE(cache.access(4));  // next line
}

TEST(LruCache, SequentialScanBenefitsFromLines) {
  // The Fig 5.5 effect: with spatial locality, larger lines at equal total
  // capacity raise the hit rate (until prefetch stops being useful).
  constexpr std::uint64_t kCells = 64;
  LruCache unit(kCells, 1);
  LruCache wide(kCells / 8, 8);
  for (std::uint64_t pass = 0; pass < 4; ++pass) {
    for (std::uint64_t a = 0; a < 4096; ++a) {
      unit.access(a);
      wide.access(a);
    }
  }
  EXPECT_GT(wide.hitRate(), unit.hitRate());
}

TEST(LruCache, RandomAccessDefeatsLines) {
  // Without locality, bigger lines mean fewer entries and a worse rate.
  support::Rng rng(31);
  constexpr std::uint64_t kCells = 64;
  LruCache unit(kCells, 1);
  LruCache wide(kCells / 16, 16);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t a = rng.below(100000);
    unit.access(a);
    wide.access(a);
  }
  EXPECT_GE(unit.hitRate(), wide.hitRate());
}

TEST(LruCache, ResetClearsEverything) {
  LruCache cache(4);
  cache.access(1);
  cache.access(1);
  cache.reset();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.residentLines(), 0u);
  EXPECT_FALSE(cache.access(1));
}

TEST(LruCache, RejectsDegenerateConfigs) {
  EXPECT_THROW(LruCache(0), support::Error);
  EXPECT_THROW(LruCache(4, 0), support::Error);
}

TEST(LruCache, LineAliasingAtWideLines) {
  // Distinct addresses that collapse onto the same line must behave as one
  // residency unit: one miss fills them all, and re-touching any alias
  // refreshes the whole line's recency.
  LruCache cache(2, /*lineSize=*/8);
  EXPECT_FALSE(cache.access(0));    // line 0 resident
  EXPECT_FALSE(cache.access(8));    // line 1 resident
  EXPECT_TRUE(cache.access(7));     // alias of line 0; line 0 now MRU
  EXPECT_FALSE(cache.access(16));   // line 2 evicts line 1 (LRU)
  EXPECT_TRUE(cache.access(3));     // line 0 survived
  EXPECT_FALSE(cache.access(15));   // line 1 was the victim
}

TEST(LruCache, RepeatedHitsDoNotPerturbEvictionOrder) {
  // Hammering the MRU line must not change which line is the victim.
  LruCache cache(3);
  cache.access(1);
  cache.access(2);
  cache.access(3);            // recency: 3 2 1
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(cache.access(3));
  cache.access(4);            // evicts 1
  EXPECT_TRUE(cache.access(2));
  EXPECT_TRUE(cache.access(3));
  EXPECT_FALSE(cache.access(1));
}

TEST(LruCache, ResetMidStreamMatchesFreshCache) {
  // A reset cache and a fresh cache must agree on the rest of the stream.
  support::Rng rng(101);
  LruCache resetted(8, 2);
  for (int i = 0; i < 500; ++i) resetted.access(rng.below(64));
  resetted.reset();
  LruCache fresh(8, 2);
  support::Rng replay(202);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = replay.below(64);
    EXPECT_EQ(resetted.access(a), fresh.access(a));
  }
  EXPECT_EQ(resetted.hits(), fresh.hits());
  EXPECT_EQ(resetted.residentLines(), fresh.residentLines());
}

/// Randomized differential harness: the flat cache must agree with the
/// retained node-based original access by access — hit/miss, counters,
/// and residency — across capacities, line sizes, and mid-stream resets.
class LruDifferential
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint32_t>> {
};

TEST_P(LruDifferential, FlatMatchesReferenceAccessByAccess) {
  const auto [capacity, lineSize] = GetParam();
  LruCache flat(capacity, lineSize);
  ReferenceLruCache reference(capacity, lineSize);
  support::Rng rng(911 + capacity * 31 + lineSize);
  const std::uint64_t addressSpan = capacity * lineSize * 4;
  for (int i = 0; i < 30000; ++i) {
    if (rng.chance(0.0005)) {  // occasional mid-stream reset
      flat.reset();
      reference.reset();
    }
    // Mix of uniform traffic and a hot set to exercise both hit paths.
    const std::uint64_t a = rng.chance(0.3)
                                ? rng.below(std::max<std::uint64_t>(
                                      addressSpan / 16, 1))
                                : rng.below(addressSpan);
    ASSERT_EQ(flat.access(a), reference.access(a)) << "at access " << i;
    ASSERT_EQ(flat.hits(), reference.hits());
    ASSERT_EQ(flat.misses(), reference.misses());
    ASSERT_EQ(flat.residentLines(), reference.residentLines());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LruDifferential,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{1, 1},
                      std::pair<std::uint64_t, std::uint32_t>{2, 16},
                      std::pair<std::uint64_t, std::uint32_t>{7, 3},
                      std::pair<std::uint64_t, std::uint32_t>{64, 1},
                      std::pair<std::uint64_t, std::uint32_t>{64, 8},
                      std::pair<std::uint64_t, std::uint32_t>{512, 4}));

class LruMattsonEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LruMattsonEquivalence, InclusionProperty) {
  // LRU inclusion: everything resident in a cache of size k is resident in
  // a cache of size k+1 under the same access stream.
  const std::uint64_t capacity = GetParam();
  LruCache smaller(capacity);
  LruCache larger(capacity + 1);
  support::Rng rng(37);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng.below(capacity * 3);
    const bool hitSmall = smaller.access(a);
    const bool hitLarge = larger.access(a);
    // A hit in the smaller cache implies a hit in the larger one.
    if (hitSmall) {
      EXPECT_TRUE(hitLarge);
    }
  }
  EXPECT_GE(larger.hitRate(), smaller.hitRate());
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruMattsonEquivalence,
                         ::testing::Values(2u, 4u, 16u, 64u));

}  // namespace
}  // namespace small::cache
