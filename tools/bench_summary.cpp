// bench_summary — fold a set of bench_report JSONL files into one
// trajectory entry:
//
//   bench_summary --date 2026-08-06 [--out-dir DIR | --out FILE]
//       PATH...
//
// Each PATH is a report file or a directory scanned (sorted) for
// *.jsonl files. The output, written to
// DIR/BENCH_<date>.json (or --out FILE verbatim), is one JSON document:
//
//   {"type":"bench_summary","version":1,"date":"...",
//    "benches":{"<bench>":{"config":{...},"figures":{...}}}}
//
// Bench names and figure names are emitted sorted, so the summary is a
// deterministic function of the input reports — successive BENCH_<date>
// files diff cleanly against each other.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace {

namespace fs = std::filesystem;
using small::obs::JsonError;
using small::obs::JsonValue;
using small::obs::parseJson;

struct BenchEntry {
  JsonValue config = JsonValue::makeObject();
  std::map<std::string, JsonValue> figures;
};

bool looksLikeReport(const fs::path& path) {
  return path.filename().string().ends_with(".jsonl");
}

bool mergeReportFile(const std::string& path,
                     std::map<std::string, BenchEntry>* benches) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_summary: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::istringstream lines(buffer.str());
  std::string line;
  std::size_t lineNo = 0;
  std::string bench;
  while (std::getline(lines, line)) {
    ++lineNo;
    if (line.empty()) continue;
    JsonValue value;
    JsonError error;
    if (!parseJson(line, &value, &error)) {
      std::fprintf(stderr, "%s:%zu: JSON parse error: %s\n", path.c_str(),
                   lineNo, error.message.c_str());
      return false;
    }
    const JsonValue* type = value.isObject() ? value.find("type") : nullptr;
    if (type == nullptr || !type->isString()) continue;
    if (type->stringValue() == "bench_report") {
      const JsonValue* name = value.find("bench");
      if (name == nullptr || !name->isString()) {
        std::fprintf(stderr, "%s:%zu: bench_report without a bench name\n",
                     path.c_str(), lineNo);
        return false;
      }
      bench = name->stringValue();
      if (const JsonValue* config = value.find("config")) {
        (*benches)[bench].config = *config;
      }
    } else if (type->stringValue() == "figure") {
      if (bench.empty()) {
        std::fprintf(stderr, "%s:%zu: figure before bench_report header\n",
                     path.c_str(), lineNo);
        return false;
      }
      const JsonValue* name = value.find("name");
      const JsonValue* figureValue = value.find("value");
      if (name != nullptr && name->isString() && figureValue != nullptr) {
        (*benches)[bench].figures[name->stringValue()] = *figureValue;
      }
    }
  }
  return true;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bench_summary --date DATE [--out-dir DIR | "
               "--out FILE] PATH...\n"
               "       PATH: bench_report JSONL file, or directory "
               "scanned for *.jsonl\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string date;
  std::string outDir;
  std::string outFile;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--date") == 0 && i + 1 < argc) {
      date = argv[++i];
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      outDir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outFile = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "bench_summary: unrecognized argument '%s'\n",
                   argv[i]);
      usage(stderr);
      return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty() || (date.empty() && outFile.empty())) {
    usage(stderr);
    return 2;
  }
  if (outFile.empty()) {
    const fs::path dir = outDir.empty() ? fs::path(".") : fs::path(outDir);
    outFile = (dir / ("BENCH_" + date + ".json")).string();
  }

  // Expand directories into their sorted report files.
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        if (entry.is_regular_file() && looksLikeReport(entry.path())) {
          found.push_back(entry.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(path);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "bench_summary: no report files found\n");
    return 1;
  }

  std::map<std::string, BenchEntry> benches;
  for (const std::string& file : files) {
    if (!mergeReportFile(file, &benches)) return 1;
  }

  JsonValue summary = JsonValue::makeObject();
  summary.set("type", JsonValue::makeString("bench_summary"));
  summary.set("version",
              JsonValue::makeInt(small::obs::kBenchReportVersion));
  if (!date.empty()) summary.set("date", JsonValue::makeString(date));
  JsonValue benchesJson = JsonValue::makeObject();
  for (const auto& [name, entry] : benches) {
    JsonValue benchJson = JsonValue::makeObject();
    benchJson.set("config", entry.config);
    JsonValue figures = JsonValue::makeObject();
    for (const auto& [figureName, figureValue] : entry.figures) {
      figures.set(figureName, figureValue);
    }
    benchJson.set("figures", figures);
    benchesJson.set(name, benchJson);
  }
  summary.set("benches", benchesJson);

  std::ofstream out(outFile, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench_summary: cannot write %s\n",
                 outFile.c_str());
    return 1;
  }
  out << summary.dump() << '\n';
  if (!out.flush()) {
    std::fprintf(stderr, "bench_summary: write failed for %s\n",
                 outFile.c_str());
    return 1;
  }
  std::printf("bench_summary: %zu report(s), %zu bench(es) -> %s\n",
              files.size(), benches.size(), outFile.c_str());
  return 0;
}
