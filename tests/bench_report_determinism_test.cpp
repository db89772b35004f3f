// End-to-end artifact tests against the real bench binaries (paths baked
// in by CMake): the `--metrics-out` bytes must be identical at --jobs 1
// and --jobs 4 (the obs determinism contract), `--trace-out` must be a
// loadable Chrome trace-event document, text output must not change when
// the artifact flags are added, and unknown flags must be rejected.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "temp_path.hpp"

namespace {

using small::obs::JsonError;
using small::obs::JsonValue;
using small::obs::parseJson;
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

class BenchArtifacts : public ::testing::TestWithParam<const char*> {
 protected:
  std::string benchPath() const {
    const std::string name = GetParam();
    if (name == "fig5_1_2_lpt_size") return FIG5_BENCH;
    if (name == "workload_scale") return WORKLOAD_BENCH;
    return GC_BENCH;
  }
  std::string benchName() const { return GetParam(); }
};

TEST_P(BenchArtifacts, MetricsIdenticalAcrossJobCounts) {
  const std::string metrics1 = tempPath(benchName() + ".j1.jsonl");
  const std::string metrics4 = tempPath(benchName() + ".j4.jsonl");
  const std::string text1 = tempPath(benchName() + ".j1.txt");
  const std::string text4 = tempPath(benchName() + ".j4.txt");
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 1 --metrics-out " +
                       metrics1 + " > " + text1),
            0);
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 4 --metrics-out " +
                       metrics4 + " > " + text4),
            0);
  const std::string bytes1 = slurp(metrics1);
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, slurp(metrics4))
      << "--metrics-out differs between --jobs 1 and --jobs 4";
  EXPECT_EQ(slurp(text1), slurp(text4))
      << "text output differs between --jobs 1 and --jobs 4";

  // The report must start with the versioned header naming the bench,
  // and every line must parse as a JSON object.
  std::istringstream lines(bytes1);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(lines, line)) {
    ++lineNo;
    JsonValue value;
    JsonError error;
    ASSERT_TRUE(parseJson(line, &value, &error))
        << "line " << lineNo << ": " << error.message;
    ASSERT_TRUE(value.isObject());
    if (lineNo == 1) {
      EXPECT_EQ(value.find("type")->stringValue(), "bench_report");
      EXPECT_EQ(value.find("bench")->stringValue(), benchName());
      EXPECT_EQ(value.find("version")->intValue(), 1);
      // --jobs and output paths must NOT leak into the config block.
      const JsonValue* config = value.find("config");
      ASSERT_NE(config, nullptr);
      EXPECT_EQ(config->find("jobs"), nullptr);
      EXPECT_EQ(config->find("metrics_out"), nullptr);
    }
  }
  EXPECT_GT(lineNo, 1u) << "report should carry figures/metrics lines";
}

TEST_P(BenchArtifacts, TextOutputUnchangedByArtifactFlags) {
  const std::string plain = tempPath(benchName() + ".plain.txt");
  const std::string decorated = tempPath(benchName() + ".decorated.txt");
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 2 > " + plain), 0);
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 2 --metrics-out " +
                       tempPath(benchName() + ".dec.jsonl") +
                       " --trace-out " +
                       tempPath(benchName() + ".dec.trace.json") + " > " +
                       decorated),
            0);
  EXPECT_EQ(slurp(plain), slurp(decorated))
      << "--metrics-out/--trace-out must not change the text output";
}

TEST_P(BenchArtifacts, ChromeTraceLoads) {
  const std::string tracePath = tempPath(benchName() + ".trace.json");
  ASSERT_EQ(runCommand(benchPath() + " --quick --trace-out " + tracePath +
                       " > /dev/null"),
            0);
  JsonValue trace;
  JsonError error;
  ASSERT_TRUE(parseJson(slurp(tracePath), &trace, &error))
      << error.message;
  ASSERT_TRUE(trace.isArray());
  ASSERT_FALSE(trace.items().empty());
  // The trace interleaves "X" duration spans with "C" telemetry counter
  // samples (dur/tid are span-only; counters carry args.value instead).
  std::size_t counterEvents = 0;
  for (const JsonValue& event : trace.items()) {
    ASSERT_TRUE(event.isObject());
    ASSERT_NE(event.find("name"), nullptr);
    EXPECT_TRUE(event.find("name")->isString());
    ASSERT_NE(event.find("ph"), nullptr);
    const std::string ph = event.find("ph")->stringValue();
    ASSERT_NE(event.find("ts"), nullptr);
    EXPECT_TRUE(event.find("ts")->isInt());
    ASSERT_NE(event.find("pid"), nullptr);
    if (ph == "C") {
      ++counterEvents;
      const JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("value"), nullptr);
      EXPECT_TRUE(args->find("value")->isNumber());
    } else {
      EXPECT_EQ(ph, "X");
      ASSERT_NE(event.find("dur"), nullptr);
      ASSERT_NE(event.find("tid"), nullptr);
    }
  }
  // --trace-out switches the telemetry plane on, so every bench that
  // wires a Snapshotter must land counter tracks in its trace.
  if (benchName() != "fig5_1_2_lpt_size") {
    EXPECT_GT(counterEvents, 0u)
        << benchName() << " trace carries no telemetry counter events";
  }
}

TEST_P(BenchArtifacts, TelemetryIdenticalAcrossJobCounts) {
  const std::string tel1 = tempPath(benchName() + ".tel.j1.jsonl");
  const std::string tel4 = tempPath(benchName() + ".tel.j4.jsonl");
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 1 --telemetry-out " +
                       tel1 + " > /dev/null"),
            0);
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 4 --telemetry-out " +
                       tel4 + " > /dev/null"),
            0);
  const std::string bytes1 = slurp(tel1);
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, slurp(tel4))
      << "--telemetry-out differs between --jobs 1 and --jobs 4";

  // Header first, then only deterministic epoch-plane series whose
  // epochs strictly increase — the wall-clock perf plane must never
  // reach this file (it would break the byte diff above).
  std::istringstream lines(bytes1);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(lines, line)) {
    ++lineNo;
    JsonValue value;
    JsonError error;
    ASSERT_TRUE(parseJson(line, &value, &error))
        << "line " << lineNo << ": " << error.message;
    if (lineNo == 1) {
      EXPECT_EQ(value.find("type")->stringValue(), "telemetry");
      EXPECT_EQ(value.find("bench")->stringValue(), benchName());
      EXPECT_EQ(value.find("version")->intValue(), 1);
      continue;
    }
    ASSERT_EQ(value.find("type")->stringValue(), "series");
    EXPECT_EQ(value.find("plane")->stringValue(), "epoch");
    const JsonValue* samples = value.find("samples");
    ASSERT_NE(samples, nullptr);
    std::int64_t last = -1;
    for (const JsonValue& pair : samples->items()) {
      ASSERT_EQ(pair.items().size(), 2u);
      EXPECT_GT(pair.items()[0].intValue(), last);
      last = pair.items()[0].intValue();
    }
  }
  if (benchName() != "fig5_1_2_lpt_size") {
    EXPECT_GT(lineNo, 1u) << "telemetry file should carry series lines";
  }
}

TEST_P(BenchArtifacts, InvalidJobsRejected) {
  // --jobs used to go through std::atoi, which silently mapped 0,
  // negatives, and garbage to "hardware concurrency". All three must now
  // be usage errors (exit 2), matching the unknown-flag path.
  for (const char* bad : {"0", "-3", "banana", "4x", ""}) {
    const std::string quoted = std::string("'") + bad + "'";
    EXPECT_EQ(runCommand(benchPath() + " --quick --jobs " + quoted +
                         " > /dev/null 2>&1"),
              2)
        << "--jobs " << quoted << " must exit 2";
  }
  const std::string message = tempPath(benchName() + ".jobs.err");
  ASSERT_EQ(runCommand(benchPath() + " --quick --jobs 0 > /dev/null 2> " +
                       message),
            2);
  const std::string err = slurp(message);
  EXPECT_NE(err.find("--jobs requires a positive integer (got '0')"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST_P(BenchArtifacts, UnknownFlagRejected) {
  EXPECT_EQ(runCommand(benchPath() +
                       " --definitely-not-a-flag > /dev/null 2>&1"),
            2);
  EXPECT_EQ(runCommand(benchPath() + " --metrics-out > /dev/null 2>&1"), 2)
      << "--metrics-out without a value must be rejected";
}

INSTANTIATE_TEST_SUITE_P(Benches, BenchArtifacts,
                         ::testing::Values("fig5_1_2_lpt_size",
                                           "gc_comparison",
                                           "workload_scale"));

// The service bench replicates its deterministic workload per session,
// and each session's telemetry buffer is folded in session-id order — so
// the telemetry bytes must be identical at any --sessions and --jobs
// count (the tentpole acceptance check, here against the real binary).
TEST(ServiceTelemetry, IdenticalAcrossSessionAndJobCounts) {
  const std::string bench = SERVICE_BENCH;
  const std::string s1 = tempPath("service.tel.s1.jsonl");
  const std::string s4 = tempPath("service.tel.s4.jsonl");
  const std::string s4j4 = tempPath("service.tel.s4j4.jsonl");
  ASSERT_EQ(runCommand(bench + " --quick --sessions 1 --telemetry-out " +
                       s1 + " > /dev/null"),
            0);
  ASSERT_EQ(runCommand(bench + " --quick --sessions 4 --telemetry-out " +
                       s4 + " > /dev/null"),
            0);
  ASSERT_EQ(runCommand(bench +
                       " --quick --sessions 4 --jobs 4 --telemetry-out " +
                       s4j4 + " > /dev/null"),
            0);
  const std::string bytes = slurp(s1);
  ASSERT_FALSE(bytes.empty());
  EXPECT_NE(bytes.find("\"type\":\"series\""), std::string::npos)
      << "service telemetry should carry per-session series";
  EXPECT_EQ(bytes, slurp(s4))
      << "service telemetry differs between --sessions 1 and 4";
  EXPECT_EQ(bytes, slurp(s4j4))
      << "service telemetry differs between --jobs 1 and 4";
}

// workload_scale's own numeric flags go through the same strict parser
// as --jobs; malformed values must be usage errors, not silent clamps.
TEST(WorkloadScaleFlags, InvalidScaleAndSeedRejected) {
  const std::string bench = WORKLOAD_BENCH;
  for (const char* bad :
       {"--scale 0", "--scale -5", "--scale 12x", "--scale 1e",
        "--scale 999", "--seed 0", "--seed nope", "--seed 1e3.5"}) {
    EXPECT_EQ(runCommand(bench + " --quick " + bad + " > /dev/null 2>&1"),
              2)
        << bad << " must exit 2";
  }
}

}  // namespace
