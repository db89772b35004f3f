// End-to-end tests for the telemetry tooling, driving the real
// report_lint and telemetry_report binaries (paths baked in by CMake)
// against hand-written telemetry files: the exit-code grading — 0 clean,
// 1 content violations (non-monotone epochs, unknown names, header/body
// count disagreement), 2 parse-level malformed input — is only
// observable through the binaries, as is the --chrome-trace dispatch of
// "ph":"C" counter events.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "temp_path.hpp"

namespace {

using small::test::tempPath;

int runCommand(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << content;
}

const char kValidHeader[] =
    "{\"type\":\"telemetry\",\"version\":1,\"bench\":\"unit\","
    "\"series\":1}\n";

std::string lintCommand(const std::string& file, const char* mode) {
  return std::string(REPORT_LINT_BIN) + " --schema " + SCHEMA_PATH + " " +
         mode + " " + file + " > /dev/null 2>&1";
}

int lintTelemetry(const std::string& content, const std::string& name) {
  const std::string path = tempPath(name);
  writeFile(path, content);
  return runCommand(lintCommand(path, "--telemetry"));
}

TEST(TelemetryLint, ValidFilePasses) {
  EXPECT_EQ(lintTelemetry(
                std::string(kValidHeader) +
                    "{\"type\":\"series\",\"plane\":\"epoch\","
                    "\"name\":\"gc.pause\",\"source\":\"t/0\","
                    "\"samples\":[[0,1],[120,2.5],[240,3]]}\n",
                "telemetry.valid.jsonl"),
            0);
}

TEST(TelemetryLint, EmptySeriesFilePasses) {
  EXPECT_EQ(lintTelemetry(
                "{\"type\":\"telemetry\",\"version\":1,"
                "\"bench\":\"unit\",\"series\":0}\n",
                "telemetry.empty.jsonl"),
            0);
}

// Parse-level damage — the file is not a telemetry document at all.
TEST(TelemetryLint, MalformedInputExits2) {
  EXPECT_EQ(lintTelemetry("this is not json\n", "telemetry.garbage.jsonl"),
            2);
  EXPECT_EQ(lintTelemetry("[1,2,3]\n", "telemetry.nontyped.jsonl"), 2);
  // Foreign header: a bench_report is not a telemetry file.
  EXPECT_EQ(lintTelemetry("{\"type\":\"bench_report\",\"version\":1,"
                          "\"bench\":\"x\",\"config\":{}}\n",
                          "telemetry.foreign.jsonl"),
            2);
  // Version this linter does not understand.
  EXPECT_EQ(lintTelemetry("{\"type\":\"telemetry\",\"version\":99,"
                          "\"bench\":\"x\",\"series\":0}\n",
                          "telemetry.version.jsonl"),
            2);
  // Unknown line type after the header.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"figure\",\"name\":\"x\","
                              "\"value\":1}\n",
                          "telemetry.unknown_type.jsonl"),
            2);
  EXPECT_EQ(lintTelemetry("", "telemetry.empty_file.jsonl"), 2);
  // A parse error on a later line is still structural.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) + "{broken\n",
                          "telemetry.broken_line.jsonl"),
            2);
}

// Well-formed lines violating the content contract exit 1.
TEST(TelemetryLint, ContentViolationsExit1) {
  // Non-monotone epochs.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"series\",\"plane\":\"epoch\","
                              "\"name\":\"gc.pause\",\"source\":\"t\","
                              "\"samples\":[[5,1],[5,2]]}\n",
                          "telemetry.dup_epoch.jsonl"),
            1);
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"series\",\"plane\":\"epoch\","
                              "\"name\":\"gc.pause\",\"source\":\"t\","
                              "\"samples\":[[9,1],[3,2]]}\n",
                          "telemetry.backward_epoch.jsonl"),
            1);
  // Name outside the telemetryNamePrefixes vocabulary.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"series\",\"plane\":\"epoch\","
                              "\"name\":\"bogus.metric\",\"source\":\"t\","
                              "\"samples\":[[0,1]]}\n",
                          "telemetry.bad_name.jsonl"),
            1);
  // Header series count disagrees with the body.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader),
                          "telemetry.count_mismatch.jsonl"),
            1);
  // A sample that is not an [epoch, value] pair.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"series\",\"plane\":\"epoch\","
                              "\"name\":\"gc.pause\",\"source\":\"t\","
                              "\"samples\":[[0,1,2]]}\n",
                          "telemetry.bad_pair.jsonl"),
            1);
  // Wrong plane constant.
  EXPECT_EQ(lintTelemetry(std::string(kValidHeader) +
                              "{\"type\":\"series\",\"plane\":\"wall\","
                              "\"name\":\"gc.pause\",\"source\":\"t\","
                              "\"samples\":[[0,1]]}\n",
                          "telemetry.bad_plane.jsonl"),
            1);
}

TEST(TelemetryLint, ChromeTraceDispatchesCounterEvents) {
  // A trace mixing a complete "X" span and a "C" counter sample passes.
  const std::string mixed = tempPath("telemetry.trace.json");
  writeFile(mixed,
            "[{\"name\":\"gc\",\"cat\":\"gc\",\"ph\":\"X\",\"ts\":0,"
            "\"dur\":5,\"pid\":0,\"tid\":1},\n"
            "{\"name\":\"gc.pause [t/0]\",\"cat\":\"telemetry.epoch\","
            "\"ph\":\"C\",\"ts\":120,\"pid\":2,"
            "\"args\":{\"value\":3.5}}]");
  EXPECT_EQ(runCommand(lintCommand(mixed, "--chrome-trace")), 0);

  // A counter event without args.value is a violation.
  const std::string bad = tempPath("telemetry.trace.bad.json");
  writeFile(bad,
            "[{\"name\":\"gc.pause\",\"cat\":\"telemetry.epoch\","
            "\"ph\":\"C\",\"ts\":120,\"pid\":2,\"args\":{}}]");
  EXPECT_EQ(runCommand(lintCommand(bad, "--chrome-trace")), 1);

  // So is a "C" event missing ts, and an incomplete "X" span still
  // fails as before.
  const std::string noTs = tempPath("telemetry.trace.nots.json");
  writeFile(noTs,
            "[{\"name\":\"gc.pause\",\"cat\":\"telemetry.epoch\","
            "\"ph\":\"C\",\"pid\":2,\"args\":{\"value\":1}}]");
  EXPECT_EQ(runCommand(lintCommand(noTs, "--chrome-trace")), 1);
}

TEST(TelemetryLint, ConflictingModesRejected) {
  EXPECT_EQ(runCommand(std::string(REPORT_LINT_BIN) + " --schema " +
                       SCHEMA_PATH + " --chrome-trace --telemetry x "
                       "> /dev/null 2>&1"),
            2);
}

TEST(TelemetryReport, FoldsValidFile) {
  const std::string path = tempPath("telemetry.report.jsonl");
  writeFile(path,
            "{\"type\":\"telemetry\",\"version\":1,\"bench\":\"unit\","
            "\"series\":2}\n"
            "{\"type\":\"series\",\"plane\":\"epoch\","
            "\"name\":\"gc.pause\",\"source\":\"t/0\","
            "\"samples\":[[0,1],[10,9],[20,5]]}\n"
            "{\"type\":\"series\",\"plane\":\"epoch\","
            "\"name\":\"lpt.occupancy\",\"source\":\"t/0\","
            "\"samples\":[]}\n");
  const std::string out = tempPath("telemetry.report.out");
  ASSERT_EQ(runCommand(std::string(TELEMETRY_REPORT_BIN) + " " + path +
                       " > " + out + " 2>&1"),
            0);
  std::ifstream in(out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("bench unit"), std::string::npos) << text;
  EXPECT_NE(text.find("gc.pause"), std::string::npos) << text;
  EXPECT_NE(text.find("lpt.occupancy"), std::string::npos) << text;
  // min/max of the first series land in the table.
  EXPECT_NE(text.find("| 1"), std::string::npos) << text;
  EXPECT_NE(text.find("| 9"), std::string::npos) << text;
}

TEST(TelemetryReport, MalformedInputFails) {
  const std::string path = tempPath("telemetry.report.bad.jsonl");
  writeFile(path, "nope\n");
  EXPECT_EQ(runCommand(std::string(TELEMETRY_REPORT_BIN) + " " + path +
                       " > /dev/null 2>&1"),
            1);
  EXPECT_EQ(runCommand(std::string(TELEMETRY_REPORT_BIN) +
                       " > /dev/null 2>&1"),
            2);
  EXPECT_EQ(runCommand(std::string(TELEMETRY_REPORT_BIN) +
                       " --bogus > /dev/null 2>&1"),
            2);
}

}  // namespace
