// The trace replayer drives the functional SMALL machine from a
// preprocessed trace. All randomness lives in the replayer, never in the
// machine, so the op sequence for a given (trace, seed) is identical on
// every heap backend — and therefore every representation-independent
// machine counter must be too. The physical heap books are the only thing
// allowed to differ.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "small/machine_replay.hpp"
#include "trace/binary.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "temp_path.hpp"

namespace small::core {
namespace {

trace::PreprocessedTrace smallTrace(std::uint64_t seed) {
  trace::WorkloadProfile profile;
  profile.name = "replay-test";
  profile.primitiveCalls = 4000;
  support::Rng rng(seed);
  return trace::preprocess(trace::generate(profile, rng));
}

ReplayResult replayOn(const trace::PreprocessedTrace& pre,
                      heap::HeapBackendKind kind, std::uint64_t seed,
                      std::uint32_t tableSize) {
  ReplayConfig config;
  config.seed = seed;
  config.machine.heapBackend = kind;
  config.machine.tableSize = tableSize;
  return replayTrace(config, pre);
}

TEST(MachineReplay, RunsAndTouchesEverySubsystem) {
  const auto pre = smallTrace(3);
  const ReplayResult result =
      replayOn(pre, heap::HeapBackendKind::kTwoPointer, 11, 1024);
  EXPECT_GT(result.primitives, 0u);
  EXPECT_GT(result.machine.gets, 0u);
  EXPECT_GT(result.machine.readLists, 0u);
  EXPECT_GT(result.machine.conses, 0u);
  EXPECT_GT(result.machine.splits, 0u);
  EXPECT_GT(result.heap.allocs, 0u);
  EXPECT_GT(result.heap.touches(), 0u);
  // Shutdown released the whole EP stack; only cyclic garbage may remain.
  EXPECT_LE(result.residualEntries, result.machine.peakEntriesInUse);
}

TEST(MachineReplay, DeterministicForFixedSeed) {
  const auto pre = smallTrace(3);
  const auto a = replayOn(pre, heap::HeapBackendKind::kTwoPointer, 11, 1024);
  const auto b = replayOn(pre, heap::HeapBackendKind::kTwoPointer, 11, 1024);
  EXPECT_EQ(a.machine.gets, b.machine.gets);
  EXPECT_EQ(a.machine.frees, b.machine.frees);
  EXPECT_EQ(a.machine.splits, b.machine.splits);
  EXPECT_EQ(a.machine.merges, b.machine.merges);
  EXPECT_EQ(a.heap.touches(), b.heap.touches());
  EXPECT_EQ(a.residualEntries, b.residualEntries);
}

TEST(MachineReplay, MachineCountersInvariantAcrossBackends) {
  const auto pre = smallTrace(7);
  // Table small enough that compression (merges) fires, so the invariant
  // is checked through the split AND merge paths.
  const auto reference =
      replayOn(pre, heap::HeapBackendKind::kTwoPointer, 17, 96);
  for (const heap::HeapBackendKind kind :
       {heap::HeapBackendKind::kCdrCoded,
        heap::HeapBackendKind::kLinkedVector}) {
    const auto run = replayOn(pre, kind, 17, 96);
    const char* backend = heap::heapBackendName(kind);
    EXPECT_EQ(reference.machine.gets, run.machine.gets) << backend;
    EXPECT_EQ(reference.machine.frees, run.machine.frees) << backend;
    EXPECT_EQ(reference.machine.splits, run.machine.splits) << backend;
    EXPECT_EQ(reference.machine.hits, run.machine.hits) << backend;
    EXPECT_EQ(reference.machine.merges, run.machine.merges) << backend;
    EXPECT_EQ(reference.machine.conses, run.machine.conses) << backend;
    EXPECT_EQ(reference.machine.modifies, run.machine.modifies) << backend;
    EXPECT_EQ(reference.machine.readLists, run.machine.readLists) << backend;
    EXPECT_EQ(reference.machine.refOps, run.machine.refOps) << backend;
    EXPECT_EQ(reference.machine.pseudoOverflows, run.machine.pseudoOverflows)
        << backend;
    EXPECT_EQ(reference.machine.peakEntriesInUse,
              run.machine.peakEntriesInUse)
        << backend;
    EXPECT_EQ(reference.primitives, run.primitives) << backend;
    EXPECT_EQ(reference.functionCalls, run.functionCalls) << backend;
    // Cyclic leftovers are a property of the op sequence, not the layout.
    EXPECT_EQ(reference.residualEntries, run.residualEntries) << backend;
    // Physical activity is the experimental axis — it must be nonzero but
    // is free to differ.
    EXPECT_GT(run.heap.touches(), 0u) << backend;
  }
}

TEST(MachineReplay, MappedReplayMatchesInMemoryReplay) {
  // The streaming path (mmap'd binary trace -> batched decode -> feed)
  // must produce the exact counters of the materialize-then-replay path,
  // at any batch size — including a batch of one event.
  trace::WorkloadProfile profile;
  profile.name = "replay-mapped";
  profile.primitiveCalls = 4000;
  support::Rng rng(5);
  const trace::Trace raw = trace::generate(profile, rng);

  ReplayConfig config;
  config.seed = 13;
  config.machine.heapBackend = heap::HeapBackendKind::kTwoPointer;
  config.machine.tableSize = 256;
  const ReplayResult expected = replayTrace(config, trace::preprocess(raw));

  const std::string path = test::tempPath("mapped.trace");
  trace::saveBinaryFile(raw, path);
  const trace::MappedTrace mapped = trace::MappedTrace::open(path);
  for (const std::size_t batchSize :
       {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
    const ReplayResult run = replayMappedTrace(config, mapped, batchSize);
    EXPECT_EQ(expected.primitives, run.primitives) << batchSize;
    EXPECT_EQ(expected.functionCalls, run.functionCalls) << batchSize;
    EXPECT_EQ(expected.machine.gets, run.machine.gets) << batchSize;
    EXPECT_EQ(expected.machine.frees, run.machine.frees) << batchSize;
    EXPECT_EQ(expected.machine.splits, run.machine.splits) << batchSize;
    EXPECT_EQ(expected.machine.merges, run.machine.merges) << batchSize;
    EXPECT_EQ(expected.machine.conses, run.machine.conses) << batchSize;
    EXPECT_EQ(expected.machine.peakEntriesInUse,
              run.machine.peakEntriesInUse)
        << batchSize;
    EXPECT_EQ(expected.heap.allocs, run.heap.allocs) << batchSize;
    EXPECT_EQ(expected.heap.touches(), run.heap.touches()) << batchSize;
    EXPECT_EQ(expected.residualEntries, run.residualEntries) << batchSize;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace small::core
