// Tests for the Chapter 3 analysis machinery: census, list sets, LRU
// stack distances, and chaining.
#include <gtest/gtest.h>

#include "analysis/census.hpp"
#include "analysis/chaining.hpp"
#include "analysis/list_sets.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"

namespace small::analysis {
namespace {

using trace::Event;
using trace::EventKind;
using trace::ObjectRecord;
using trace::Primitive;
using trace::Trace;

ObjectRecord obj(std::uint64_t fp, std::uint32_t n = 2, std::uint32_t p = 0) {
  ObjectRecord record;
  record.fingerprint = fp;
  record.n = n;
  record.p = p;
  record.isList = true;
  return record;
}

void addPrim(Trace& trace, Primitive primitive,
             std::vector<ObjectRecord> args, ObjectRecord result) {
  Event event;
  event.kind = EventKind::kPrimitive;
  event.primitive = primitive;
  event.args = std::move(args);
  event.result = result;
  trace.append(std::move(event));
}

TEST(Census, CountsPrimitiveFractions) {
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCdr, {obj(1)}, obj(3));
  addPrim(trace, Primitive::kCons, {obj(2), obj(3)}, obj(4));
  const PrimitiveCensus census = censusPrimitives(trace);
  EXPECT_EQ(census.total, 4u);
  EXPECT_DOUBLE_EQ(census.fraction(Primitive::kCar), 0.5);
  EXPECT_DOUBLE_EQ(census.fraction(Primitive::kCdr), 0.25);
  EXPECT_DOUBLE_EQ(census.fraction(Primitive::kCons), 0.25);
  EXPECT_DOUBLE_EQ(census.fraction(Primitive::kRplaca), 0.0);
}

TEST(Census, ShapeStatisticsOverListArguments) {
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1, 10, 2)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(3, 20, 4)}, obj(4));
  const ShapeStatistics stats = censusShapes(trace);
  EXPECT_EQ(stats.n.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.n.mean(), 15.0);
  EXPECT_DOUBLE_EQ(stats.p.mean(), 3.0);
  EXPECT_EQ(stats.nHistogram.countOf(10), 1u);
}

// --- the list-set partitioner ---

TEST(ListSets, RelatedReferencesFormOneSet) {
  // car-chain over one list: everything lands in one set.
  Trace trace;
  addPrim(trace, Primitive::kCdr, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCdr, {obj(2)}, obj(3));
  addPrim(trace, Primitive::kCar, {obj(3)}, obj(4));
  const auto pre = preprocess(trace);
  const ListSetPartition partition = partitionListSets(pre);
  ASSERT_EQ(partition.sets.size(), 1u);
  EXPECT_EQ(partition.sets[0].references, 3u);
  EXPECT_EQ(partition.totalReferences, 3u);
}

TEST(ListSets, UnrelatedListsFormSeparateSets) {
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(10)}, obj(11));
  const auto pre = preprocess(trace);
  const ListSetPartition partition = partitionListSets(pre);
  EXPECT_EQ(partition.sets.size(), 2u);
}

TEST(ListSets, ConsRelatesBothOperands) {
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(10)}, obj(11));
  addPrim(trace, Primitive::kCons, {obj(2), obj(11)}, obj(20));
  const auto pre = preprocess(trace);
  ListSetOptions options;
  options.separationAbsolute = 100;  // isolate the relation logic
  const ListSetPartition partition = partitionListSets(pre, options);
  // The cons joins the two families into one set.
  EXPECT_EQ(partition.sets.size(), 1u);
  EXPECT_EQ(partition.totalReferences, 4u);
}

TEST(ListSets, SeparationConstraintSplitsDistantReferences) {
  // Two bursts of access to the same structure, far apart: with a small
  // absolute window they are distinct list sets; with a huge window, one.
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  for (int i = 0; i < 100; ++i) {
    addPrim(trace, Primitive::kCar, {obj(100)}, obj(101));
  }
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  const auto pre = preprocess(trace);

  ListSetOptions narrow;
  narrow.separationAbsolute = 10;
  const ListSetPartition split = partitionListSets(pre, narrow);

  ListSetOptions wide;
  wide.separationAbsolute = 100000;
  const ListSetPartition joined = partitionListSets(pre, wide);

  // obj(1)'s family: 2 sets under the narrow window, 1 under the wide.
  EXPECT_EQ(split.sets.size(), 3u);   // {1,1}, {100...}, {1}
  EXPECT_EQ(joined.sets.size(), 2u);  // {1,1,1}, {100...}
}

TEST(ListSets, LifetimeIsLastMinusFirst) {
  Trace trace;
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(50)}, obj(51));
  addPrim(trace, Primitive::kCar, {obj(50)}, obj(51));
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));
  const auto pre = preprocess(trace);
  ListSetOptions options;
  options.separationFraction = 1.0;  // never split
  const ListSetPartition partition = partitionListSets(pre, options);
  ASSERT_EQ(partition.sets.size(), 2u);
  // Find the set of obj(1): first 0, last 3.
  bool found = false;
  for (const ListSet& s : partition.sets) {
    if (s.firstTouch == 0) {
      EXPECT_EQ(s.lastTouch, 3u);
      EXPECT_DOUBLE_EQ(s.lifetimeFraction(partition.traceLength), 0.75);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ListSets, CumulativeSeriesReachesOne) {
  support::Rng rng(1);
  const Trace trace = generate(trace::slangProfile(0.1), rng);
  const auto pre = preprocess(trace);
  const ListSetPartition partition = partitionListSets(pre);
  const support::Series series = partition.cumulativeReferencesBySetRank();
  ASSERT_FALSE(series.y.empty());
  EXPECT_NEAR(series.y.back(), 1.0, 1e-9);
  // Monotone nondecreasing.
  for (std::size_t i = 1; i < series.y.size(); ++i) {
    EXPECT_GE(series.y[i], series.y[i - 1]);
  }
}

TEST(ListSets, SyntheticTraceShowsStructuralLocality) {
  // The thesis' headline observation: a small number of list sets covers a
  // large fraction of all references (~10 sets -> ~80%).
  support::Rng rng(7);
  const Trace trace = generate(trace::slangProfile(0.5), rng);
  const auto pre = preprocess(trace);
  const ListSetPartition partition = partitionListSets(pre);
  const support::Series series = partition.cumulativeReferencesBySetRank();
  ASSERT_GE(series.y.size(), 20u);
  EXPECT_GT(series.y[19], 0.6);  // 20 sets cover well over half
}

TEST(ListSets, LruDepthsConcentrateAtTop) {
  // Fig 3.7: ~70-90% of references within the top 4 list sets.
  support::Rng rng(11);
  const Trace trace = generate(trace::lyraProfile(0.05), rng);
  const auto pre = preprocess(trace);
  const ListSetPartition partition = partitionListSets(pre);
  const support::Series cdf = partition.lruDepthCdf(8);
  ASSERT_GE(cdf.y.size(), 4u);
  EXPECT_GT(cdf.y[3], 0.5);
}

// Parameterized sensitivity sweep (Figs 3.8-3.10): the partition's gross
// shape is stable across separation constraints.
class SeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeparationSweep, PartitionInvariants) {
  support::Rng rng(3);
  const Trace trace = generate(trace::slangProfile(0.2), rng);
  const auto pre = preprocess(trace);
  ListSetOptions options;
  options.separationFraction = GetParam();
  const ListSetPartition partition = partitionListSets(pre, options);

  std::uint64_t total = 0;
  for (const ListSet& s : partition.sets) {
    EXPECT_GE(s.lastTouch, s.firstTouch);
    EXPECT_LE(s.lastTouch - s.firstTouch, partition.traceLength);
    total += s.references;
  }
  // Every reference belongs to exactly one set.
  EXPECT_EQ(total, partition.totalReferences);
}

INSTANTIATE_TEST_SUITE_P(Constraints, SeparationSweep,
                         ::testing::Values(0.05, 0.10, 0.25, 0.50, 1.0));

TEST(ListSets, SmallerWindowNeverProducesFewerSets) {
  support::Rng rng(5);
  const Trace trace = generate(trace::editorProfile(0.1), rng);
  const auto pre = preprocess(trace);
  std::size_t previous = 0;
  for (const double fraction : {1.0, 0.5, 0.1, 0.05, 0.01}) {
    ListSetOptions options;
    options.separationFraction = fraction;
    const auto partition = partitionListSets(pre, options);
    EXPECT_GE(partition.sets.size(), previous);
    previous = partition.sets.size();
  }
}

// --- chaining ---

TEST(Chaining, FractionsPerPrimitive) {
  Trace trace;
  addPrim(trace, Primitive::kCdr, {obj(1)}, obj(2));
  addPrim(trace, Primitive::kCar, {obj(2)}, obj(3));   // chained
  addPrim(trace, Primitive::kCar, {obj(1)}, obj(2));   // not chained
  const auto pre = preprocess(trace);
  const ChainingStats stats = analyzeChaining(pre);
  EXPECT_DOUBLE_EQ(stats.chainedFraction(Primitive::kCar), 0.5);
  EXPECT_DOUBLE_EQ(stats.chainedFraction(Primitive::kCdr), 0.0);
}

TEST(Chaining, SyntheticProfilesReproduceTable32Ordering) {
  // Lyra chains far more than Pearl (Table 3.2: 82.75% vs 0.88% for car).
  support::Rng rng(19);
  const auto lyra = preprocess(generate(trace::lyraProfile(0.02), rng));
  const auto pearl = preprocess(generate(trace::pearlProfile(2.0), rng));
  const ChainingStats lyraStats = analyzeChaining(lyra);
  const ChainingStats pearlStats = analyzeChaining(pearl);
  // The paper's gap (82.75% vs 0.88%) narrows here because a chain needs
  // the previous call's result to be a list; the ordering and the
  // significant-vs-negligible contrast are what must survive. These short
  // test traces jitter more than the full-length bench runs (which land
  // at ~76% vs ~6%, see EXPERIMENTS.md), so the bounds are loose.
  EXPECT_GT(lyraStats.chainedFraction(Primitive::kCar), 0.45);
  EXPECT_LT(pearlStats.chainedFraction(Primitive::kCar), 0.20);
  EXPECT_GT(lyraStats.chainedFraction(Primitive::kCar),
            2.5 * pearlStats.chainedFraction(Primitive::kCar));
}

}  // namespace
}  // namespace small::analysis
