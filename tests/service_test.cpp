// Tests for the service-mode stack: the combining-queue protocol
// (multilisp/combining.hpp), the striped-lock ShardedLpt, and the
// end-to-end determinism contract of runService — the deterministic
// stats plane must be byte-identical at any concurrency and for both
// trace backings (in-memory preprocessed vs SMTR-mapped).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "multilisp/combining.hpp"
#include "multilisp/service.hpp"
#include "obs/contrib.hpp"
#include "obs/registry.hpp"
#include "obs/sweep.hpp"
#include "small/sharded_lpt.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "temp_path.hpp"

namespace small::multilisp {
namespace {

// --- splitRef / ShardWeightTable ---

TEST(Combining, SplitRefHalvesWeightLocally) {
  ShardRef ref{2, 7, 100};
  const ShardRef clone = splitRef(ref);
  EXPECT_EQ(clone.shard, 2u);
  EXPECT_EQ(clone.object, 7u);
  EXPECT_EQ(clone.weight + ref.weight, 100u);
  EXPECT_EQ(clone.weight, 50u);
  ShardRef exhausted{0, 1, 1};
  EXPECT_THROW(splitRef(exhausted), support::SimulationError);
}

TEST(Combining, BaseObjectDiesWhenWeightReturnsAndFreesItsEntry) {
  ShardWeightTable table(0);
  ShardRef ref = table.create(42);
  EXPECT_EQ(ref.weight, ShardWeightTable::kInitialWeight);
  EXPECT_TRUE(table.isLive(ref.object));
  ShardRef clone = splitRef(ref);

  std::vector<ShardRef> releases;
  std::vector<core::EntryId> freed;
  table.applyDecrement(ref.object, ref.weight, releases, freed);
  EXPECT_TRUE(table.isLive(ref.object)) << "half the weight is still out";
  EXPECT_TRUE(freed.empty());
  table.applyDecrement(clone.object, clone.weight, releases, freed);
  EXPECT_FALSE(table.isLive(ref.object));
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], 42u);
  EXPECT_TRUE(releases.empty()) << "base objects release no references";
  EXPECT_EQ(table.liveObjects(), 0u);
}

TEST(Combining, DyingIndirectionReleasesItsTargetReference) {
  ShardWeightTable home(1);
  ShardWeightTable remote(0);
  ShardRef base = remote.create(7);
  // Decay a split of the base reference down to weight 1.
  ShardRef decayed = splitRef(base);
  while (decayed.weight > 1) {
    ShardRef half = splitRef(decayed);
    std::vector<ShardRef> releases;
    std::vector<core::EntryId> freed;
    remote.applyDecrement(half.object, half.weight, releases, freed);
  }
  // The weight-1 escape: interpose an indirection in the HOME table.
  ShardRef indirection = home.indirect(decayed);
  EXPECT_EQ(indirection.shard, 1u);
  EXPECT_EQ(indirection.weight, ShardWeightTable::kInitialWeight);
  EXPECT_EQ(home.indirectionsCreated(), 1u);
  EXPECT_TRUE(remote.isLive(decayed.object))
      << "the indirection now holds the weight-1 reference";

  // Kill the indirection: it must hand back the absorbed reference.
  std::vector<ShardRef> releases;
  std::vector<core::EntryId> freed;
  home.applyDecrement(indirection.object, indirection.weight, releases,
                      freed);
  EXPECT_TRUE(freed.empty()) << "indirections pin no LPT entries";
  ASSERT_EQ(releases.size(), 1u);
  EXPECT_EQ(releases[0].shard, decayed.shard);
  EXPECT_EQ(releases[0].object, decayed.object);
  EXPECT_EQ(releases[0].weight, 1u);
  EXPECT_EQ(home.liveObjects(), 0u);

  // Returning the released weight (plus the rest) kills the base.
  remote.applyDecrement(releases[0].object, releases[0].weight, releases,
                        freed);
  std::vector<ShardRef> r2;
  std::vector<core::EntryId> f2;
  remote.applyDecrement(base.object, base.weight, r2, f2);
  EXPECT_EQ(remote.liveObjects(), 0u);
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_EQ(f2[0], 7u);
}

TEST(Combining, DecrementUnderflowThrows) {
  ShardWeightTable table(0);
  ShardRef ref = table.create(1);
  std::vector<ShardRef> releases;
  std::vector<core::EntryId> freed;
  EXPECT_THROW(table.applyDecrement(ref.object,
                                    std::uint64_t{ref.weight} + 1,
                                    releases, freed),
               support::SimulationError);
}

// --- CombiningUpdateQueue ---

TEST(Combining, QueueCombinesSameTargetAndBatchesPerShard) {
  CombiningUpdateQueue queue(16);
  EXPECT_FALSE(queue.add({0, 5, 10}));
  EXPECT_FALSE(queue.add({0, 5, 20}));  // same (shard, object): combined
  EXPECT_FALSE(queue.add({0, 6, 1}));
  EXPECT_FALSE(queue.add({3, 5, 7}));   // same object id, other shard
  EXPECT_EQ(queue.pendingUpdates(), 3u);
  EXPECT_EQ(queue.stats().enqueued, 4u);
  EXPECT_EQ(queue.stats().combined, 1u);

  std::vector<std::pair<std::uint32_t, std::uint64_t>> applied;
  std::uint64_t shardMessages = 0;
  queue.flush(
      [&](std::uint32_t shard,
          const std::vector<std::pair<ObjectId, std::uint64_t>>& updates,
          std::vector<ShardRef>&) {
        ++shardMessages;
        for (const auto& [object, weight] : updates) {
          applied.emplace_back(shard, weight);
          (void)object;
        }
      },
      nullptr);
  EXPECT_EQ(queue.pendingUpdates(), 0u);
  EXPECT_EQ(shardMessages, 2u) << "one message per target shard";
  EXPECT_EQ(queue.stats().messages, 2u);
  EXPECT_EQ(queue.stats().flushes, 1u);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0], (std::pair<std::uint32_t, std::uint64_t>{0, 30}));
  EXPECT_EQ(applied[1], (std::pair<std::uint32_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(applied[2], (std::pair<std::uint32_t, std::uint64_t>{3, 7}));
}

TEST(Combining, QueueSignalsFlushAtCapacityAndDrainsCascades) {
  CombiningUpdateQueue queue(2);
  EXPECT_FALSE(queue.add({0, 1, 1}));
  EXPECT_TRUE(queue.add({0, 2, 1})) << "capacity reached";
  // A release cascade: applying shard 0 releases a ref into shard 1,
  // which must be applied within the same flush call.
  std::vector<std::uint32_t> shardsApplied;
  queue.flush(
      [&](std::uint32_t shard,
          const std::vector<std::pair<ObjectId, std::uint64_t>>&,
          std::vector<ShardRef>& releases) {
        shardsApplied.push_back(shard);
        if (shard == 0) releases.push_back({1, 9, 4});
      },
      nullptr);
  EXPECT_EQ(queue.pendingUpdates(), 0u);
  ASSERT_EQ(shardsApplied.size(), 2u);
  EXPECT_EQ(shardsApplied[0], 0u);
  EXPECT_EQ(shardsApplied[1], 1u);
  EXPECT_THROW(queue.add({0, 1, 0}), support::SimulationError);
}

// --- ShardedLpt ---

TEST(ShardedLpt, GuardsIndependentShardsAndCountsAcquisitions) {
  core::ShardedLpt lpt(4, 64, core::ReclaimPolicy::kRecursive);
  EXPECT_EQ(lpt.shardCount(), 4u);
  EXPECT_EQ(lpt.homeShard(5), 1u);
  {
    core::ShardedLpt::Guard guard = lpt.lock(1);
    const core::EntryId entry = guard.lpt().allocate();
    ASSERT_NE(entry, core::kNoEntry);
    guard.lpt().incRef(entry);
    guard.lpt().decRef(entry);
  }
  EXPECT_EQ(lpt.acquisitions(1), 1u);
  EXPECT_EQ(lpt.acquisitions(0), 0u);
  EXPECT_EQ(lpt.quiescedShard(1).inUseCount(), 0u);
  EXPECT_THROW(core::ShardedLpt(0, 64, core::ReclaimPolicy::kRecursive),
               support::SimulationError);
}

// --- runService determinism ---

std::vector<trace::Trace> tenantRawTraces(int tenants) {
  std::vector<trace::Trace> raw;
  for (int t = 0; t < tenants; ++t) {
    support::Rng rng(90 + t);
    raw.push_back(trace::generate(trace::slangProfile(0.02), rng));
  }
  return raw;
}

/// The deterministic plane of a ServiceResult, rendered to comparable
/// bytes exactly the way bench/service_throughput does: per-session and
/// per-shard registries merged in id order.
std::string deterministicBytes(const ServiceResult& result) {
  obs::ShardSet shards(result.sessions.size() + result.shardLpt.size());
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    obs::contributeServiceSession(*shards.registryAt(i),
                                  result.sessions[i]);
  }
  for (std::size_t s = 0; s < result.shardLpt.size(); ++s) {
    obs::contributeLptStats(
        *shards.registryAt(result.sessions.size() + s),
        result.shardLpt[s]);
  }
  obs::Registry merged;
  shards.mergeInto(merged);
  return merged.exportJsonLines();
}

TEST(Service, DeterministicPlaneIdenticalAtAnyConcurrency) {
  const int tenants = 6;
  const std::vector<trace::Trace> raw = tenantRawTraces(tenants);
  std::vector<trace::PreprocessedTrace> pre;
  for (const trace::Trace& trace : raw) {
    pre.push_back(trace::preprocess(trace));
  }
  std::vector<SessionSource> sources(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    sources[static_cast<std::size_t>(t)].pre =
        &pre[static_cast<std::size_t>(t)];
  }
  ServiceConfig config;
  config.shardCount = 3;

  const ServiceResult serial = runService(config, sources, 1);
  EXPECT_EQ(serial.residualObjects, 0u) << "weight leaked";
  EXPECT_EQ(serial.residualEntries, 0u) << "LPT entries leaked";
  EXPECT_GT(serial.totalPrimitives, 0u);
  std::uint64_t published = 0;
  std::uint64_t indirections = 0;
  for (const SessionStats& s : serial.sessions) {
    published += s.published;
    indirections += s.indirections;
    EXPECT_GT(s.refDestroys, 0u);
    EXPECT_GT(s.queue.messages, 0u);
  }
  EXPECT_GT(published, 0u);
  EXPECT_GT(indirections, 0u)
      << "the churn must exercise the weight-1 indirection path";

  const std::string bytes = deterministicBytes(serial);
  for (const int concurrency : {2, 4, 8}) {
    const ServiceResult result = runService(config, sources, concurrency);
    EXPECT_EQ(result.residualObjects, 0u);
    EXPECT_EQ(result.residualEntries, 0u);
    EXPECT_EQ(deterministicBytes(result), bytes)
        << "deterministic plane diverged at concurrency " << concurrency;
  }
}

TEST(Service, MappedSourcesMatchPreprocessedSources) {
  const int tenants = 3;
  const std::vector<trace::Trace> raw = tenantRawTraces(tenants);
  std::vector<trace::PreprocessedTrace> pre;
  std::vector<trace::MappedTrace> mapped;
  std::vector<std::string> files;
  for (int t = 0; t < tenants; ++t) {
    const trace::Trace& trace = raw[static_cast<std::size_t>(t)];
    pre.push_back(trace::preprocess(trace));
    const std::string path =
        test::tempPath("tenant" + std::to_string(t) + ".smtr");
    trace::saveFile(trace, path, trace::FileFormat::kBinary);
    files.push_back(path);
    mapped.push_back(trace::MappedTrace::open(path));
  }
  std::vector<SessionSource> preSources(static_cast<std::size_t>(tenants));
  std::vector<SessionSource> mappedSources(
      static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    preSources[static_cast<std::size_t>(t)].pre =
        &pre[static_cast<std::size_t>(t)];
    mappedSources[static_cast<std::size_t>(t)].mapped =
        &mapped[static_cast<std::size_t>(t)];
  }
  ServiceConfig config;
  config.shardCount = 2;
  config.mappedBatch = 64;  // force many refill boundaries
  const ServiceResult viaPre = runService(config, preSources, 2);
  const ServiceResult viaMapped = runService(config, mappedSources, 2);
  EXPECT_EQ(deterministicBytes(viaPre), deterministicBytes(viaMapped));
  mapped.clear();
  for (const std::string& path : files) std::remove(path.c_str());
}

TEST(Service, RejectsEmptyAndSourcelessSessions) {
  ServiceConfig config;
  EXPECT_THROW(runService(config, {}, 1), support::SimulationError);
  std::vector<SessionSource> sources(1);  // neither pre nor mapped
  EXPECT_THROW(runService(config, sources, 1),
               support::SimulationError);
}

}  // namespace
}  // namespace small::multilisp
