// End-to-end tests for the trace_gen tool (path baked in by CMake):
// every family generates loadable output in both formats through the
// real binary, same-seed runs are byte-identical, --replay closes the
// generate->mmap->replay loop, and every malformed numeric flag — the
// PR-7 hardening contract — exits 2 without creating the output file or
// leaving a `.tmp` sibling behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "temp_path.hpp"

namespace {

namespace fs = std::filesystem;
using namespace small;
using small::test::tempPath;

int runCommand(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expectNoTempLeftovers(const std::string& outPath) {
  const fs::path out(outPath);
  for (const fs::directory_entry& entry :
       fs::directory_iterator(out.parent_path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(out.filename().string() + ".tmp."),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

std::string gen(const std::string& args) {
  return std::string(TRACE_GEN_BIN) + " " + args;
}

TEST(TraceGen, EveryFamilyProducesLoadableBinary) {
  for (const char* family : {"agent-loop", "thunk-heavy", "session-churn"}) {
    const std::string out = tempPath(std::string(family) + ".smtr");
    ASSERT_EQ(runCommand(gen("--family " + std::string(family) +
                             " --scale 3000 --out " + out + " > /dev/null")),
              0)
        << family;
    const trace::MappedTrace mapped = trace::MappedTrace::open(out);
    EXPECT_EQ(mapped.toTrace().primitiveLength(), 3000u) << family;
    expectNoTempLeftovers(out);
    std::remove(out.c_str());
  }
}

TEST(TraceGen, TextFormatLoads) {
  const std::string out = tempPath("text.trace");
  ASSERT_EQ(runCommand(gen("--family session-churn --scale 2000 "
                           "--format text --out " +
                           out + " > /dev/null")),
            0);
  const trace::Trace loaded = trace::loadFile(out);
  EXPECT_EQ(loaded.primitiveLength(), 2000u);
  expectNoTempLeftovers(out);
  std::remove(out.c_str());
}

TEST(TraceGen, SameSeedIsByteIdentical) {
  const std::string a = tempPath("det_a.smtr");
  const std::string b = tempPath("det_b.smtr");
  const std::string flags =
      "--family thunk-heavy --scale 4000 --seed 9 --chain-depth 80 --out ";
  ASSERT_EQ(runCommand(gen(flags + a + " > /dev/null")), 0);
  ASSERT_EQ(runCommand(gen(flags + b + " > /dev/null")), 0);
  EXPECT_EQ(slurp(a), slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceGen, ReplayClosesTheLoop) {
  const std::string out = tempPath("replay.smtr");
  ASSERT_EQ(runCommand(gen("--family agent-loop --scale 3000 --replay "
                           "--out " +
                           out + " > /dev/null")),
            0);
  std::remove(out.c_str());
}

TEST(TraceGen, KnobListingExitsZero) {
  EXPECT_EQ(runCommand(gen("--family agent-loop --knobs > /dev/null")), 0);
}

// Strict-parse hardening: each malformed invocation must exit 2 and
// leave the filesystem untouched (no output, no temp files).
TEST(TraceGen, MalformedFlagsExitTwoWithoutOutput) {
  const std::string out = tempPath("bad.smtr");
  const std::vector<std::string> badArgs = {
      "--family agent-loop --scale 0 --out " + out,
      "--family agent-loop --scale -3 --out " + out,
      "--family agent-loop --scale 1e --out " + out,
      "--family agent-loop --scale 12x --out " + out,
      "--family agent-loop --scale 99 --out " + out,  // below kMinScale
      "--family agent-loop --scale 5e3.5 --out " + out,
      "--family agent-loop --scale 99999999999999999999 --out " + out,
      "--family agent-loop --scale 3000 --seed 0 --out " + out,
      "--family agent-loop --scale 3000 --seed nope --out " + out,
      "--family agent-loop --scale 3000 --env-entries 0 --out " + out,
      "--family agent-loop --scale 3000 --mutate-prob 1.5 --out " + out,
      "--family agent-loop --scale 3000 --mutate-prob x --out " + out,
      "--family thunk-heavy --scale 3000 --chain-depth 3 --out " + out,
      "--family agent-loop --scale 3000 --format xml --out " + out,
      // Knobs belong to their family only.
      "--family agent-loop --scale 3000 --chain-depth 50 --out " + out,
      "--family agent-loop --scale 3000 --bogus-flag 1 --out " + out,
      "--family agent-loop --scale 3000 --out " + out +
          " --format text --replay",
      "--family no-such-family --scale 3000 --out " + out,
      "--scale 3000 --out " + out,   // missing --family
      "--family agent-loop --out " + out,  // missing --scale
      "--family agent-loop --scale 3000",  // missing --out
  };
  for (const std::string& args : badArgs) {
    std::remove(out.c_str());
    EXPECT_EQ(runCommand(gen(args + " > /dev/null 2>&1")), 2) << args;
    EXPECT_FALSE(fs::exists(out)) << "bad invocation created " << out
                                  << " via: " << args;
    expectNoTempLeftovers(out);
  }
}

TEST(TraceGen, KnobsChangeTheOutput) {
  const std::string a = tempPath("knob_a.smtr");
  const std::string b = tempPath("knob_b.smtr");
  ASSERT_EQ(runCommand(gen("--family session-churn --scale 4000 --out " +
                           a + " > /dev/null")),
            0);
  ASSERT_EQ(runCommand(gen("--family session-churn --scale 4000 "
                           "--live-sessions 7 --out " +
                           b + " > /dev/null")),
            0);
  EXPECT_NE(slurp(a), slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
