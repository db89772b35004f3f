// The scenario workload families (workloads/families/): determinism,
// sink equivalence (in-memory Trace vs streaming BinaryWriter vs text
// stream), the BinaryWriter's atomic-output contract, the declared
// statistics envelopes, and a preprocess+simulate smoke over each
// family's output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/contrib.hpp"
#include "obs/registry.hpp"
#include "small/simulator.hpp"
#include "support/error.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/preprocess.hpp"
#include "workloads/families/family.hpp"
#include "temp_path.hpp"

namespace {

namespace fs = std::filesystem;
using namespace small;
using small::test::tempPath;
namespace fam = workloads::families;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string binaryBytes(const trace::Trace& trace) {
  std::ostringstream out(std::ios::binary);
  trace::saveBinary(trace, out);
  return out.str();
}

fam::FamilyConfig smallConfig(std::uint64_t seed = 1) {
  fam::FamilyConfig config;
  config.scale = 5000;
  config.seed = seed;
  return config;
}

TEST(Families, NamesRoundTrip) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const auto back = fam::familyFromName(fam::familyName(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(fam::familyFromName("agentloop").has_value());
  EXPECT_FALSE(fam::familyFromName("").has_value());
}

TEST(Families, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const trace::Trace a = fam::generateTrace(kind, smallConfig(7));
    const trace::Trace b = fam::generateTrace(kind, smallConfig(7));
    const trace::Trace c = fam::generateTrace(kind, smallConfig(8));
    EXPECT_EQ(binaryBytes(a), binaryBytes(b)) << fam::familyName(kind);
    EXPECT_NE(binaryBytes(a), binaryBytes(c)) << fam::familyName(kind);
  }
}

TEST(Families, ExactScaleAndBalancedCalls) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    fam::FamilyStats stats;
    const trace::Trace raw =
        fam::generateTrace(kind, smallConfig(3), &stats);
    EXPECT_EQ(stats.primitives, smallConfig().scale);
    EXPECT_EQ(raw.primitiveLength(), smallConfig().scale);
    const trace::TraceContent content = raw.content();
    EXPECT_TRUE(content.balanced()) << fam::familyName(kind);
    EXPECT_EQ(content.functionCalls, stats.functionCalls);
    EXPECT_EQ(content.maxCallDepth, stats.maxCallDepth);
    EXPECT_EQ(stats.events, raw.events().size());
  }
}

// The generator-side chained-car/cdr accounting must mirror what the
// §5.2.1 preprocessor computes from the emitted stream.
TEST(Families, ChainAccountingMatchesPreprocessor) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    fam::FamilyStats stats;
    const trace::Trace raw =
        fam::generateTrace(kind, smallConfig(11), &stats);
    const trace::PreprocessedTrace pre = trace::preprocess(raw);
    std::uint64_t carChained = 0;
    std::uint64_t cdrChained = 0;
    for (const trace::PreprocessedEvent& event : pre.events) {
      if (event.kind != trace::EventKind::kPrimitive) continue;
      bool chained = false;
      for (const auto& arg : event.args) chained = chained || arg.chained;
      if (!chained) continue;
      if (event.primitive == trace::Primitive::kCar) ++carChained;
      if (event.primitive == trace::Primitive::kCdr) ++cdrChained;
    }
    EXPECT_EQ(stats.carChained, carChained) << fam::familyName(kind);
    EXPECT_EQ(stats.cdrChained, cdrChained) << fam::familyName(kind);
  }
}

TEST(Families, StatisticsStayInsideDeclaredEnvelope) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const fam::MixExpectation expect = fam::familyExpectation(kind);
    for (const std::uint64_t seed : {1ull, 42ull, 31337ull}) {
      fam::FamilyConfig config;
      config.scale = 20000;
      config.seed = seed;
      fam::FamilyStats stats;
      fam::generateTrace(kind, config, &stats);
      const std::string label =
          std::string(fam::familyName(kind)) + " seed " +
          std::to_string(seed);
      EXPECT_NEAR(stats.primitiveFrac(trace::Primitive::kCar),
                  expect.carFrac, expect.mixTolerance) << label;
      EXPECT_NEAR(stats.primitiveFrac(trace::Primitive::kCdr),
                  expect.cdrFrac, expect.mixTolerance) << label;
      EXPECT_NEAR(stats.primitiveFrac(trace::Primitive::kCons),
                  expect.consFrac, expect.mixTolerance) << label;
      EXPECT_NEAR(stats.carChainRate(), expect.carChainRate,
                  expect.chainTolerance) << label;
      EXPECT_NEAR(stats.cdrChainRate(), expect.cdrChainRate,
                  expect.chainTolerance) << label;
      // Bounded-residency contract: the generator never holds anything
      // like the whole trace.
      EXPECT_LT(stats.liveObjectsPeak, stats.objectsCreated) << label;
    }
  }
}

// The families must be *different* from each other — that is their
// reason to exist. Check the axes the scenarios advertise.
TEST(Families, FamiliesAreDistinct) {
  fam::FamilyStats agent, thunk, churn;
  fam::generateTrace(fam::FamilyKind::kAgentLoop, smallConfig(), &agent);
  fam::generateTrace(fam::FamilyKind::kThunkHeavy, smallConfig(), &thunk);
  fam::generateTrace(fam::FamilyKind::kSessionChurn, smallConfig(),
                     &churn);
  // session-churn allocates far more per primitive than agent-loop.
  EXPECT_GT(churn.primitiveFrac(trace::Primitive::kCons),
            2 * agent.primitiveFrac(trace::Primitive::kCons));
  // thunk-heavy is the cdr-walk pole; session-churn barely chains.
  EXPECT_GT(thunk.cdrChainRate(), 2 * churn.cdrChainRate());
  // agent-loop mutates its environment; thunk-heavy never mutates.
  EXPECT_GT(agent.primitiveFrac(trace::Primitive::kRplacd), 0.0);
  EXPECT_EQ(thunk.perPrimitive[static_cast<std::size_t>(
                trace::Primitive::kRplacd)],
            0u);
}

TEST(Families, StreamingBinaryWriterMatchesInMemorySave) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const std::string streamed =
        tempPath(std::string(fam::familyName(kind)) + "_streamed.smtr");
    const std::string direct =
        tempPath(std::string(fam::familyName(kind)) + "_direct.smtr");

    const fam::FamilyConfig config = smallConfig(5);
    const trace::Trace raw = fam::generateTrace(kind, config);
    trace::saveBinaryFile(raw, direct);

    trace::BinaryWriter writer(streamed, raw.name);
    fam::BinaryWriterSink sink(writer);
    fam::makeFamily(kind, config)->generate(sink);
    writer.finish();

    EXPECT_EQ(slurp(streamed), slurp(direct)) << fam::familyName(kind);
    std::remove(streamed.c_str());
    std::remove(direct.c_str());
  }
}

TEST(Families, TextStreamSinkMatchesInMemorySave) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const fam::FamilyConfig config = smallConfig(5);
    const trace::Trace raw = fam::generateTrace(kind, config);
    std::ostringstream direct;
    trace::save(raw, direct);

    std::ostringstream streamed;
    fam::TextStreamSink sink(streamed, raw.name);
    fam::makeFamily(kind, config)->generate(sink);

    EXPECT_EQ(streamed.str(), direct.str()) << fam::familyName(kind);
  }
}

TEST(Families, RejectsOutOfRangeScaleAndKnobs) {
  fam::FamilyConfig config;
  config.scale = fam::kMinScale - 1;
  EXPECT_THROW(fam::makeFamily(fam::FamilyKind::kAgentLoop, config),
               support::Error);
  config.scale = 5000;
  config.agentLoop.envEntries = 0;
  EXPECT_THROW(fam::makeFamily(fam::FamilyKind::kAgentLoop, config),
               support::Error);
  // The same config is fine for a family that does not read that knob.
  EXPECT_NO_THROW(fam::makeFamily(fam::FamilyKind::kThunkHeavy, config));
  config.agentLoop.envEntries = 96;
  config.thunkHeavy.forcedFraction = 1.5;
  EXPECT_THROW(fam::makeFamily(fam::FamilyKind::kThunkHeavy, config),
               support::Error);
}

TEST(Families, KnobTablePointsIntoConfig) {
  fam::FamilyConfig config;
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    for (const fam::Knob& knob : fam::familyKnobs(kind, config)) {
      ASSERT_TRUE((knob.count != nullptr) != (knob.real != nullptr))
          << knob.flag;
      EXPECT_LT(knob.min, knob.max) << knob.flag;
      if (knob.count != nullptr) {
        // In range by default, and writable through the table.
        const auto before = *knob.count;
        EXPECT_GE(static_cast<double>(before), knob.min) << knob.flag;
        EXPECT_LE(static_cast<double>(before), knob.max) << knob.flag;
        *knob.count = before + 1;
        EXPECT_EQ(*knob.count, before + 1);
        *knob.count = before;
      } else {
        EXPECT_GE(*knob.real, knob.min) << knob.flag;
        EXPECT_LE(*knob.real, knob.max) << knob.flag;
      }
    }
  }
}

TEST(Families, PreprocessAndSimulateSmoke) {
  for (const fam::FamilyKind kind : fam::kAllFamilies) {
    const trace::Trace raw = fam::generateTrace(kind, smallConfig());
    const trace::PreprocessedTrace pre = trace::preprocess(raw);
    EXPECT_EQ(pre.primitiveCount, smallConfig().scale);
    core::SimConfig config;
    config.tableSize = 1u << 14;
    config.seed = 17;
    const core::SimResult result = core::simulateTrace(config, pre);
    EXPECT_GT(result.peakOccupancy, 0u) << fam::familyName(kind);
    EXPECT_FALSE(result.trueOverflowOccurred) << fam::familyName(kind);
  }
}

TEST(Families, ContributeFamilyStatsPublishesWorkloadNames) {
  fam::FamilyStats stats;
  fam::generateTrace(fam::FamilyKind::kAgentLoop, smallConfig(), &stats);
  obs::Registry registry;
  obs::contributeFamilyStats(registry, stats);
  EXPECT_EQ(registry.counter(obs::names::kWorkloadPrimitives).value(),
            stats.primitives);
  EXPECT_EQ(registry.counter("workload.prim.cdr").value(),
            stats.perPrimitive[static_cast<std::size_t>(
                trace::Primitive::kCdr)]);
}

// --- BinaryWriter contract, beyond what the families exercise ---

TEST(BinaryWriterContract, EmptyWriterMatchesEmptyTrace) {
  const std::string path = tempPath("empty.smtr");
  trace::Trace empty;
  empty.name = "empty";
  trace::BinaryWriter writer(path, "empty");
  writer.finish();
  std::ostringstream direct(std::ios::binary);
  trace::saveBinary(empty, direct);
  EXPECT_EQ(slurp(path), direct.str());
  std::remove(path.c_str());
}

TEST(BinaryWriterContract, AbortAndDestructorLeaveNoFiles) {
  const std::string path = tempPath("aborted.smtr");
  {
    trace::BinaryWriter writer(path, "aborted");
    trace::Event event;
    event.kind = trace::EventKind::kPrimitive;
    event.primitive = trace::Primitive::kRead;
    writer.append(event);
    // No finish(): the destructor must clean up.
  }
  EXPECT_FALSE(fs::exists(path));
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(path).parent_path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find("aborted.smtr."), std::string::npos)
        << "leftover temp: " << entry.path();
  }
}

TEST(BinaryWriterContract, FunctionEventsRequireInternedIds) {
  const std::string path = tempPath("badid.smtr");
  trace::BinaryWriter writer(path, "badid");
  trace::Event enter;
  enter.kind = trace::EventKind::kFunctionEnter;
  enter.functionId = 3;  // nothing interned
  EXPECT_THROW(writer.append(enter), support::Error);
  writer.abort();
}

TEST(BinaryWriterContract, InternMatchesTraceSemantics) {
  const std::string path = tempPath("intern.smtr");
  trace::BinaryWriter writer(path, "intern");
  trace::Trace reference;
  for (const char* name : {"f", "g", "f", "h", "g"}) {
    EXPECT_EQ(writer.internFunction(name),
              reference.internFunction(name));
  }
  writer.abort();
}

}  // namespace
