// End-to-end tests for the trace_convert tool (path baked in by CMake):
// lossless text<->binary round-trips through the real binary, and the
// atomic-output contract — a conversion that fails for ANY reason
// (malformed input, unwritable destination) must exit nonzero and leave
// the destination exactly as it was: absent if it was absent, untouched
// if it existed, and never a truncated `.tmp` sibling.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/rng.hpp"
#include "trace/io.hpp"
#include "trace/synthetic.hpp"
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

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// No `<out>.tmp.<pid>` (or any other sibling starting with the stem)
/// may survive a run, successful or not.
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

std::string sampleTextTrace() {
  support::Rng rng(7);
  const trace::Trace raw =
      trace::generate(trace::slangProfile(0.01), rng);
  const std::string path = tempPath("sample.trace");
  trace::saveFile(raw, path, trace::FileFormat::kText);
  return path;
}

TEST(TraceConvert, TextBinaryTextRoundTripIsLossless) {
  const std::string text = sampleTextTrace();
  const std::string binary = tempPath("roundtrip.smtr");
  const std::string back = tempPath("roundtrip_back.trace");
  ASSERT_EQ(runCommand(std::string(TRACE_CONVERT_BIN) + " " + text + " " +
                       binary + " > /dev/null"),
            0);
  ASSERT_EQ(runCommand(std::string(TRACE_CONVERT_BIN) + " " + binary +
                       " " + back + " > /dev/null"),
            0);
  EXPECT_EQ(slurp(text), slurp(back));
  expectNoTempLeftovers(binary);
  expectNoTempLeftovers(back);
  std::remove(text.c_str());
  std::remove(binary.c_str());
  std::remove(back.c_str());
}

TEST(TraceConvert, MalformedInputLeavesNoOutput) {
  const std::string bad = tempPath("malformed.trace");
  writeBytes(bad, "E f 1\nQ bogus\n");
  const std::string out = tempPath("malformed_out.smtr");
  std::remove(out.c_str());
  EXPECT_NE(runCommand(std::string(TRACE_CONVERT_BIN) + " " + bad + " " +
                       out + " > /dev/null 2>&1"),
            0);
  EXPECT_FALSE(fs::exists(out)) << "failed conversion created " << out;
  expectNoTempLeftovers(out);
  std::remove(bad.c_str());
}

TEST(TraceConvert, MalformedInputLeavesExistingOutputUntouched) {
  const std::string bad = tempPath("clobber.trace");
  writeBytes(bad, "not a trace at all\n");
  const std::string out = tempPath("clobber_out.smtr");
  writeBytes(out, "precious bytes");
  EXPECT_NE(runCommand(std::string(TRACE_CONVERT_BIN) + " " + bad + " " +
                       out + " > /dev/null 2>&1"),
            0);
  EXPECT_EQ(slurp(out), "precious bytes")
      << "failed conversion must not clobber the existing destination";
  expectNoTempLeftovers(out);
  std::remove(bad.c_str());
  std::remove(out.c_str());
}

TEST(TraceConvert, UnwritableDestinationFailsCleanly) {
  const std::string text = sampleTextTrace();
  EXPECT_NE(runCommand(std::string(TRACE_CONVERT_BIN) + " " + text +
                       " /nonexistent/dir/out.smtr > /dev/null 2>&1"),
            0);
  std::remove(text.c_str());
}

TEST(TraceConvert, BadUsageExitsTwo) {
  EXPECT_EQ(runCommand(std::string(TRACE_CONVERT_BIN) +
                       " > /dev/null 2>&1"),
            2);
  const std::string text = sampleTextTrace();
  EXPECT_EQ(runCommand(std::string(TRACE_CONVERT_BIN) + " " + text + " " +
                       tempPath("fmt.out") +
                       " --to nonsense > /dev/null 2>&1"),
            2);
  std::remove(text.c_str());
}

}  // namespace
