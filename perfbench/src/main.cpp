// smab_perf: the repository benchmark's measuring program.
//
//   smab_perf --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--git-sha SHA]
//
// Builds the workload's inputs (set-up, timed several times back to back),
// runs a few untimed warm-up ops, then closed-loop ops for S seconds: the
// next op starts when the previous one ends, and op i uses seed
// cycle[i % kCycle] of a fixed cycle derived from --seed; after each
// cycle the process moves to the next CPU. Set-up is timed
// again after the loop. Every op checks its outputs. The last stdout line
// is the result object
//   {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). DIR receives a detailed result file and, when traced, the
// Chrome trace of the spans and the deterministic work counts.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "support/parallel.hpp"
#include "workload.hpp"

#ifndef SMAB_BUILD_TYPE
#define SMAB_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up is timed kSetupSamples times back to back before warm-up and as
// many times again after the timed loop, and setup_s is the median of all
// samples. Back-to-back samples share the host's speed of the moment,
// which drifts over tens of seconds, so two moments a run apart give a
// steadier median; neither touches the timed ops. Each sample runs on
// the next CPU (see moveToCpus). A sample times the workload's
// setupReps() repetitions as one block and yields the mean repetition
// time.
constexpr int kSetupSamples = 5;
constexpr int kWarmupOps = 3;
constexpr std::size_t kCycle = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::filesystem::path out;
  std::string gitSha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "smab_perf: %s\nusage: smab_perf --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR [--git-sha SHA]\n",
               why);
  std::exit(2);
}

std::uint64_t parseUnsigned(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(flag);
  return value;
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parseUnsigned(value, "bad --seed");
      haveSeed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parseUnsigned(value, "bad --seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t t = parseUnsigned(value, "bad --trace");
      if (t > 1) usage("--trace must be 0 or 1");
      args.trace = t == 1;
      haveTrace = true;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--git-sha") {
      args.gitSha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !haveSeed || args.seconds <= 0 || !haveTrace ||
      args.out.empty()) {
    usage("missing a required flag");
  }
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Confines the calling thread, and the threads it starts from now on,
/// to `width` of `cpus` beginning at the `block`-th one (wrapping).
///
/// The timed loop moves to the next CPU after every seed cycle. On a
/// shared host each vCPU has slow stretches of its own (ops about 1.5x
/// slower for 5-20 s), not correlated between vCPUs. A thread the
/// scheduler leaves on one vCPU sees only that vCPU's stretches, so a
/// run's latency follows one vCPU's luck; taking turns averages the
/// vCPUs. A move leaves the next op with cold private caches, so it
/// happens once per 8-op cycle, and each vCPU runs whole cycles. In six
/// interleaved pairs of 30-s ch3_locality runs, moving per cycle cut the
/// spread of mean op latency from 0.16 to 0.09 (IQR / median); moving
/// every op was 10% slower.
void moveToCpus(const std::vector<int>& cpus, std::size_t block, int width) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < width; ++k) {
    CPU_SET(cpus[(block + static_cast<std::size_t>(k)) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].name) + ": {\"value\": " +
           jsonNumber(metrics[i].value) +
           ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --- per-layer metrics -------------------------------------------------

const char* const kBackends[] = {"two-pointer", "cdr-coded", "linked-vector"};
const char* const kCollectors[] = {"mark-sweep", "semispace", "deferred-rc",
                                   "generational", "incremental"};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
/// not run reads 0 there.
std::vector<Metric> layerMetrics(const SpanLog& log, const Ledger& ledger,
                                 std::size_t countedOps,
                                 double tracingOverhead) {
  const std::map<std::string, double> self = log.medianSelfMs();
  const std::map<std::string, double> rate = log.workRate();
  const auto at = [](const std::map<std::string, double>& m,
                     const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto sum = [&](const std::string& key) {
    const auto it = ledger.sums.find(key);
    return it == ledger.sums.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto perOp = [&](const std::string& key) {
    return ratio(sum(key), static_cast<double>(countedOps));
  };
  const auto maxOf = [&](const std::string& key) {
    const auto it = ledger.maxima.find(key);
    return it == ledger.maxima.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto perf = [&](const std::string& key) {
    const auto it = ledger.perfSums.find(key);
    return it == ledger.perfSums.end() ? 0.0
                                       : static_cast<double>(it->second);
  };

  std::vector<Metric> m;
  const auto ms = [&](const std::string& name, const std::string& span) {
    m.push_back({name, at(self, span), "ms"});
  };
  ms("trace.generate.ms", "trace.generate");
  m.push_back({"trace.generate.prims_per_s", at(rate, "trace.generate"), "1/s"});
  ms("trace.preprocess.ms", "trace.preprocess");
  ms("trace.smtr.write.ms", "trace.smtr.write");
  ms("workloads.family.generate.ms", "workloads.family.generate");
  ms("trace.smtr.decode.ms", "trace.smtr.decode");
  ms("analysis.census.ms", "analysis.census");
  ms("analysis.chaining.ms", "analysis.chaining");
  ms("analysis.list_sets.ms", "analysis.list_sets");
  m.push_back({"analysis.list_sets.count", perOp("analysis.list_sets.count"),
               "count"});
  ms("small.sim.init.ms", "small.sim.init");
  ms("small.sim.run.ms", "small.sim.run");
  m.push_back({"small.sim.prims_per_s", at(rate, "small.sim.run"), "1/s"});
  m.push_back({"small.lpt.hit_rate",
               ratio(sum("small.lpt.hits"), sum("small.lpt.accesses")),
               "ratio"});
  for (const char* key : {"small.lpt.splits", "small.lpt.pseudo_overflows",
                          "small.lpt.merges", "small.lpt.ref_ops"}) {
    m.push_back({key, perOp(key), "count"});
  }
  m.push_back({"small.lpt.peak_occupancy", maxOf("small.lpt.peak_occupancy"),
               "count"});
  m.push_back({"cache.hit_rate", ratio(sum("cache.hits"), sum("cache.accesses")),
               "ratio"});
  m.push_back({"cache.accesses", perOp("cache.accesses"), "count"});
  for (const char* backend : kBackends) {
    ms(std::string("small.replay.ms.") + backend,
       std::string("small.replay.") + backend);
  }
  m.push_back({"small.machine.ref_ops", perOp("small.machine.ref_ops"), "count"});
  m.push_back({"small.machine.splits", perOp("small.machine.splits"), "count"});
  for (const char* backend : kBackends) {
    const std::string key = std::string("heap.touches.") + backend;
    m.push_back({key, perOp(key), "count"});
  }
  for (const char* backend : kBackends) {
    const std::string key = std::string("heap.peak_live_cells.") + backend;
    m.push_back({key, maxOf(key), "count"});
  }
  m.push_back({"gc.machine.slices", perOp("gc.machine.slices"), "count"});
  m.push_back({"gc.machine.pause_max", maxOf("gc.machine.pause_max"), "touches"});
  m.push_back({"gc.machine.pause_total", perOp("gc.machine.pause_total"),
               "touches"});
  ms("gc.script.build.ms", "gc.script.build");
  ms("small.gc_baseline.ms", "small.gc_baseline");
  for (const char* collector : kCollectors) {
    ms(std::string("gc.run_script.ms.") + collector,
       std::string("gc.run_script.") + collector);
  }
  for (const char* collector : kCollectors) {
    const std::string key = std::string("gc.cells_traced.") + collector;
    m.push_back({key, perOp(key), "count"});
  }
  ms("multilisp.service.ms", "multilisp.service");
  m.push_back({"multilisp.shard.contended_ratio",
               ratio(perf("multilisp.shard.contended"),
                     perf("multilisp.shard.acquisitions")),
               "ratio"});
  m.push_back({"multilisp.queue.combined_ratio",
               ratio(sum("multilisp.queue.combined"),
                     sum("multilisp.queue.enqueued")),
               "ratio"});
  m.push_back({"multilisp.indirections", perOp("multilisp.indirections"),
               "count"});
  m.push_back({"bench.tracing_overhead", tracingOverhead, "ratio"});
  return m;
}

/// The deterministic counts text: per-op fingerprints plus the summed
/// and maximal counts, all pure functions of the run seed.
std::string countsText(const Args& args, const Ledger& ledger,
                       std::size_t countedOps) {
  std::string out = "workload " + args.workload + " seed " +
                    std::to_string(args.seed) + " ops " +
                    std::to_string(countedOps) + "\n" + ledger.detail;
  for (const auto& [key, value] : ledger.sums) {
    out += "sum " + key + " " + std::to_string(value) + "\n";
  }
  for (const auto& [key, value] : ledger.maxima) {
    out += "max " + key + " " + std::to_string(value) + "\n";
  }
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

int run(const Args& args) {
  const std::string stem =
      args.workload + "-seed" + std::to_string(args.seed);
  const std::filesystem::path workDir =
      args.out / ("work-" + std::to_string(::getpid()));
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, workDir);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  std::filesystem::create_directories(workDir);
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{workDir};

  const std::vector<int> cpus = allowedCpus();
  SpanLog log(nowNs());
  SpanLog* const traceLog = args.trace ? &log : nullptr;

  std::vector<std::uint64_t> cycle(kCycle);
  for (std::size_t i = 0; i < kCycle; ++i) {
    cycle[i] = small::support::deriveTaskSeed(args.seed, i);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string firstFailure;
  const auto runOp = [&](std::uint64_t seed, Ledger* ledger) {
    ++attempted;
    OpOutcome outcome;
    try {
      outcome = workload->op(seed, ledger);
    } catch (const std::exception& e) {
      outcome.failure = std::string("exception: ") + e.what();
    }
    if (!outcome.failure.empty()) {
      ++failed;
      if (firstFailure.empty()) firstFailure = outcome.failure;
    }
    return outcome.primitives;
  };

  // Set-up rebuilds the same inputs in place; only the first repetition
  // of each sample is traced.
  std::vector<double> setupSeconds;  // per sample: mean repetition time
  const auto timeSetup = [&] {
    const int reps = workload->setupReps();
    for (int sample = 0; sample < kSetupSamples; ++sample) {
      moveToCpus(cpus, setupSeconds.size(), 1);  // set-up is one thread
      const std::int64_t t0 = nowNs();
      for (int rep = 0; rep < reps; ++rep) {
        gLog = rep == 0 ? traceLog : nullptr;
        if (gLog != nullptr) {
          gLog->beginGroup("setup " + std::to_string(setupSeconds.size()));
        }
        LayerSpan span("setup");
        workload->setup();
      }
      setupSeconds.push_back((nowNs() - t0) / 1e9 / reps);
      gLog = nullptr;
    }
  };
  timeSetup();
  moveToCpus(cpus, 0, workload->threads());
  for (int i = 0; i < kWarmupOps; ++i) runOp(cycle[i % kCycle], nullptr);

  // --- timed closed loop ---
  Ledger ledger;
  std::vector<double> untracedMs;
  std::vector<double> tracedMs;
  std::string opMsList;  // every timed op's latency, in op order
  std::uint64_t primitives = 0;
  std::int64_t timedNs = 0;
  const std::int64_t start = nowNs();
  const std::int64_t runNs = static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const std::int64_t elapsed = nowNs() - start;
    // The traced mode always completes one full seed cycle, so its
    // deterministic counts cover the same ops on every host.
    if (elapsed >= runNs && !(args.trace && i < kCycle)) break;
    if (i % kCycle == 0) moveToCpus(cpus, i / kCycle, workload->threads());
    // Traced mode: even ops carry spans, odd ops run bare; the two
    // medians give the tracing overhead under the same host conditions.
    const bool traced = args.trace && i % 2 == 0;
    gLog = traced ? traceLog : nullptr;
    if (gLog != nullptr) gLog->beginGroup("op " + std::to_string(i));
    const std::int64_t t0 = nowNs();
    {
      LayerSpan span("op");
      primitives += runOp(cycle[i % kCycle], i < kCycle ? &ledger : nullptr);
    }
    const std::int64_t t1 = nowNs();
    gLog = nullptr;
    timedNs += t1 - t0;
    (traced ? tracedMs : untracedMs).push_back((t1 - t0) / 1e6);
    opMsList += (i == 0 ? "" : ", ") + jsonNumber((t1 - t0) / 1e6);
  }
  timeSetup();
  const double timedSeconds = timedNs / 1e9;
  const std::size_t countedOps = std::min<std::size_t>(
      kCycle, untracedMs.size() + tracedMs.size());

  std::vector<Metric> metrics;
  std::string extra;
  if (args.trace) {
    gLog = traceLog;
    gLog->beginGroup("traced passes");
    ++attempted;
    try {
      const std::string failure = workload->tracedPasses(cycle[0], ledger);
      if (!failure.empty()) {
        ++failed;
        if (firstFailure.empty()) firstFailure = failure;
      }
    } catch (const std::exception& e) {
      ++failed;
      if (firstFailure.empty()) firstFailure = e.what();
    }
    gLog = nullptr;
    const double overhead =
        ratio(median(tracedMs), median(untracedMs));
    metrics = layerMetrics(log, ledger, countedOps, overhead);
    const std::string counts = countsText(args, ledger, countedOps);
    writeFile(args.out / (stem + ".counts.txt"), counts);
    writeFile(args.out / (stem + ".trace.json"), log.chromeJson());
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(fnv1a(counts)));
    std::printf("# deterministic counts fnv1a %s (%s)\n", hash,
                (args.out / (stem + ".counts.txt")).c_str());
    std::printf("# spans: %s\n", (args.out / (stem + ".trace.json")).c_str());
    extra = ", \"deterministic_counts_fnv1a\": \"" + std::string(hash) + "\"";
  } else {
    metrics = {
        {"prims_per_s", primitives / timedSeconds, "1/s"},
        {"op_ms_p50", median(untracedMs), "ms"},
        {"op_ms_p90", percentile(untracedMs, 0.90), "ms"},
        {"setup_s", median(setupSeconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
  }

  const std::size_t samples = untracedMs.size() + tracedMs.size();
  std::printf("# %s seed %llu: %zu timed ops in %.3f s (+%llu untimed), "
              "%zu set-up samples, %llu failed%s%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), samples,
              timedSeconds,
              static_cast<unsigned long long>(attempted - samples),
              setupSeconds.size(), static_cast<unsigned long long>(failed),
              firstFailure.empty() ? "" : ": ", firstFailure.c_str());
  const std::string host =
      "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"cpu\": " + jsonString(cpuModel()) +
      ", \"compiler\": " + jsonString(std::string("g++ ") + __VERSION__) +
      ", \"build_type\": " + jsonString(SMAB_BUILD_TYPE) +
      ", \"git_sha\": " + jsonString(args.gitSha) + "}";
  std::printf("# host %s\n", host.c_str());

  const std::string result =
      "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metricsJson(metrics) + "}";
  writeFile(args.out / (stem + (args.trace ? ".traced" : "") + ".result.json"),
            "{\"workload\": " + jsonString(args.workload) +
                ", \"seed\": " + std::to_string(args.seed) +
                ", \"trace\": " + (args.trace ? "true" : "false") +
                ", \"timed_ops\": " + std::to_string(samples) +
                ", \"untimed_ops\": " + std::to_string(attempted - samples) +
                ", \"setup_samples\": " + std::to_string(setupSeconds.size()) +
                ", \"first_failure\": " + jsonString(firstFailure) +
                extra + ", \"host\": " + host + ", \"op_ms\": [" + opMsList +
                "], \"result\": " + result +
                "}\n");
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smab_perf: %s\n", e.what());
    return 1;
  }
}
