// Service-mode throughput — the Ch. 6 multiprocessor SMALL run as a
// long-lived multi-tenant service (multilisp/service.hpp): a fixed
// roster of tenant sessions, each replaying its own workload trace on a
// private SmallMachine while publishing/copying/retiring references into
// one sharded LPT through the weighting + combining-queue protocol. The
// bench sweeps the worker-thread count 1 -> --sessions and reports
// aggregate primitives/sec, lock contention, and weight-queue depth.
//
// Two stats planes, strictly separated:
//   * deterministic (--metrics-out): per-tenant SessionStats and
//     per-shard LPT totals, merged in id order. These are pure functions
//     of (tenant, trace, seed) — the bench re-merges them at every
//     concurrency point and exits nonzero if any point's bytes differ,
//     which is the obs determinism contract extended to real contended
//     threads.
//   * perf (stdout + --perf-out): wall-clock rates, speedups, and the
//     sharded LPT's acquisition/contention counters. Schedule-dependent
//     by nature; never written into --metrics-out.
//
// `--trace-format binary` runs every session from an on-disk SMTR file
// through replayMappedTrace (O(batch) memory); text/direct modes replay
// the in-memory preprocessed traces. Deterministic stats are identical
// in all modes.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gc/gc.hpp"
#include "multilisp/service.hpp"
#include "workloads/families/family.hpp"
#include "obs/contrib.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "trace/binary.hpp"

namespace {

using namespace small;

/// What work the tenants replay: the five Ch. 3 paper distributions, the
/// three scenario families (workloads/families/), or both interleaved.
enum class RosterMix { kPaper, kModern, kMixed };

trace::Trace paperTenantTrace(int t, double scale) {
  // Tenants cycle the five Ch. 3 workload profiles, each generated from
  // its own tenant-salted seed so no two tenants replay identical work.
  support::Rng rng(2026 + t);
  const trace::WorkloadProfile profile = [&] {
    switch (t % 5) {
      case 0: return trace::slangProfile(scale);
      case 1: return trace::plagenProfile(scale);
      case 2: return trace::lyraProfile(scale);
      case 3: return trace::editorProfile(scale);
      default: return trace::pearlProfile(scale);
    }
  }();
  trace::Trace raw = trace::generate(profile, rng);
  raw.name = profile.name + "#" + std::to_string(t);
  return raw;
}

trace::Trace familyTenantTrace(int t, double scale) {
  namespace fam = workloads::families;
  const fam::FamilyKind kind =
      fam::kAllFamilies[static_cast<std::size_t>(t) %
                        std::size(fam::kAllFamilies)];
  fam::FamilyConfig config;
  // Match the paper profiles' magnitude: scale 0.05 (quick) ~ 3k
  // primitives per tenant, 0.5 ~ 30k.
  config.scale = std::max<std::uint64_t>(
      fam::kMinScale * 2, static_cast<std::uint64_t>(60000.0 * scale));
  config.seed = static_cast<std::uint64_t>(2026 + t);
  trace::Trace raw = fam::generateTrace(kind, config);
  raw.name = std::string(fam::familyName(kind)) + "#" + std::to_string(t);
  return raw;
}

std::vector<benchutil::NamedTrace> tenantTraces(RosterMix mix, int tenants,
                                                double scale) {
  std::vector<benchutil::NamedTrace> traces;
  traces.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    const bool modern =
        mix == RosterMix::kModern || (mix == RosterMix::kMixed && t % 2 == 1);
    trace::Trace raw = modern ? familyTenantTrace(t, scale)
                              : paperTenantTrace(t, scale);
    std::string name = raw.name;
    traces.push_back({std::move(name), std::move(raw)});
  }
  return traces;
}

/// Deterministic shard-merged metrics for one service run: one registry
/// per tenant session, then one per LPT shard, folded in id order.
std::string mergeServiceMetrics(const multilisp::ServiceResult& result,
                                obs::ShardSet& shards, obs::Registry& out) {
  const std::size_t tenants = result.sessions.size();
  for (std::size_t i = 0; i < tenants; ++i) {
    obs::contributeServiceSession(*shards.registryAt(i),
                                  result.sessions[i]);
  }
  for (std::size_t s = 0; s < result.shardLpt.size(); ++s) {
    obs::contributeLptStats(*shards.registryAt(tenants + s),
                            result.shardLpt[s]);
  }
  shards.mergeInto(out);
  return out.exportJsonLines();
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchRun bench(
      "service_throughput", argc, argv,
      {{"--quick"},
       {"--tenants", true},
       {"--shards", true},
       {"--roster", true},
       {"--gc", true},
       // Concurrency and perf-artifact path shape execution, not the
       // experiment: keep them out of the deterministic report config.
       {"--sessions", true, false},
       {"--perf-out", true, false}});

  const bool quick = bench.has("--quick");
  const int tenants = bench.positiveIntValue("--tenants", 8);
  const int shards = bench.positiveIntValue("--shards", 4);
  const int maxSessions =
      bench.positiveIntValue("--sessions", support::hardwareJobs());
  const double scale = quick ? 0.05 : 0.5;

  const RosterMix mix = static_cast<RosterMix>(
      bench.choiceValue("--roster", 0, {"paper", "modern", "mixed"}));

  // Per-session heap reclamation (the machine-side collector policies;
  // the service-layer weighting protocol is unaffected). Part of the
  // experiment, so it lands in the deterministic report config.
  const gc::Policy gcPolicy = [&] {
    switch (bench.choiceValue(
        "--gc", 0, {"none", "marksweep", "generational", "incremental"})) {
      case 1: return gc::Policy::kMarkSweep;
      case 2: return gc::Policy::kGenerational;
      case 3: return gc::Policy::kIncremental;
      default: return gc::Policy::kNone;
    }
  }();

  multilisp::ServiceConfig config;
  config.shardCount = static_cast<std::uint32_t>(shards);
  config.replay.machine.gcPolicy = gcPolicy;
  if (gcPolicy != gc::Policy::kNone) {
    // Low enough that even --quick tenants genuinely collect.
    config.replay.machine.gcTriggerCells = quick ? 512 : 4096;
  }
  // Telemetry plane (--telemetry-out / --trace-out): sample each
  // session's queue depth, held refs and publish totals every 512
  // primitives on the deterministic epoch clock, plus per-shard
  // contention and replay-rate perf tracks. Like --jobs, the stride is
  // fixed — never a config knob — so telemetry bytes are comparable
  // across runs.
  config.telemetryEvery = bench.telemetryEnabled() ? 512 : 0;
  bench.report().setConfig("scale", scale);

  // --- tenant roster (the fixed work; concurrency never changes it) ---
  std::vector<benchutil::NamedTrace> raw = tenantTraces(mix, tenants, scale);
  std::vector<benchutil::PreparedTrace> prepared;
  std::vector<trace::MappedTrace> mapped;
  std::vector<std::filesystem::path> smtrFiles;
  std::vector<multilisp::SessionSource> sources(
      static_cast<std::size_t>(tenants));
  if (bench.traceRoundTrip() == benchutil::TraceRoundTrip::kBinary) {
    // Real SMTR service ingestion: every session streams its trace from
    // an mmap'd file via replayMappedTrace.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path();
    for (int t = 0; t < tenants; ++t) {
      const std::filesystem::path file =
          dir / ("small_service_" + std::to_string(::getpid()) + "_" +
                 std::to_string(t) + ".smtr");
      trace::saveFile(raw[static_cast<std::size_t>(t)].raw, file.string(),
                      trace::FileFormat::kBinary);
      smtrFiles.push_back(file);
      mapped.push_back(trace::MappedTrace::open(file.string()));
    }
    for (int t = 0; t < tenants; ++t) {
      sources[static_cast<std::size_t>(t)].mapped =
          &mapped[static_cast<std::size_t>(t)];
    }
  } else {
    benchutil::roundTripTraces(raw, bench.traceRoundTrip(), "svc");
    prepared = benchutil::prepareTraces(std::move(raw), bench.jobs());
    for (int t = 0; t < tenants; ++t) {
      sources[static_cast<std::size_t>(t)].pre =
          &prepared[static_cast<std::size_t>(t)].pre;
    }
  }

  // --- concurrency sweep: 1, 2, 4, ... up to --sessions ---
  std::vector<int> points;
  for (int c = 1; c < maxSessions; c *= 2) points.push_back(c);
  points.push_back(maxSessions);

  struct PerfPoint {
    int sessions = 0;
    double wallSeconds = 0.0;
    std::uint64_t primitives = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
    std::uint64_t messages = 0;
    std::uint64_t combined = 0;
  };
  std::vector<PerfPoint> perf;
  std::string firstMetrics;
  std::string firstTelemetry;
  multilisp::ServiceResult last;
  obs::ShardSet firstShards(static_cast<std::size_t>(tenants + shards));
  int exitCode = 0;

  for (std::size_t p = 0; p < points.size(); ++p) {
    const int sessions = points[p];
    multilisp::ServiceResult result =
        multilisp::runService(config, sources, sessions);
    if (result.residualObjects != 0 || result.residualEntries != 0) {
      std::fprintf(stderr,
                   "service_throughput: residual objects=%llu entries=%llu "
                   "after shutdown at %d sessions (weight leak)\n",
                   (unsigned long long)result.residualObjects,
                   (unsigned long long)result.residualEntries, sessions);
      exitCode = 1;
    }

    obs::ShardSet shards_(static_cast<std::size_t>(tenants + shards));
    obs::Registry merged;
    const std::string metrics =
        mergeServiceMetrics(result, shards_, merged);
    if (p == 0) {
      firstMetrics = metrics;
      // Keep the point-1 shards for the report: the contract says any
      // point would do, which the byte-diff below proves.
      mergeServiceMetrics(result, firstShards, bench.registry());
    } else if (metrics != firstMetrics) {
      std::fprintf(stderr,
                   "service_throughput: deterministic metrics diverged "
                   "between %d and %d sessions\n",
                   points[0], sessions);
      exitCode = 1;
    }

    // The determinism contract extended to the time axis: the epoch-plane
    // telemetry series (session buffers folded in id order) must render
    // to the same bytes at every concurrency point.
    obs::TelemetryDoc pointTelemetry;
    for (const multilisp::SessionStats& s : result.sessions) {
      pointTelemetry.append(s.telemetry);
    }
    const std::string telemetrySeries = pointTelemetry.renderSeriesLines();
    if (p == 0) {
      firstTelemetry = telemetrySeries;
      for (const multilisp::SessionStats& s : result.sessions) {
        bench.telemetry().append(s.telemetry);
      }
    } else if (telemetrySeries != firstTelemetry) {
      std::fprintf(stderr,
                   "service_throughput: telemetry series diverged "
                   "between %d and %d sessions\n",
                   points[0], sessions);
      exitCode = 1;
    }

    PerfPoint point;
    point.sessions = sessions;
    point.wallSeconds = result.wallSeconds;
    point.primitives = result.totalPrimitives;
    for (const std::uint64_t a : result.shardAcquisitions) {
      point.acquisitions += a;
    }
    for (const std::uint64_t c : result.shardContended) {
      point.contended += c;
    }
    for (const multilisp::SessionStats& s : result.sessions) {
      point.messages += s.queue.messages;
      point.combined += s.queue.combined;
    }
    perf.push_back(point);
    last = std::move(result);
  }
  for (const std::filesystem::path& file : smtrFiles) {
    std::filesystem::remove(file);
  }

  // --- perf plane: stdout table + optional --perf-out report ---
  const double baseRate =
      perf[0].wallSeconds > 0.0
          ? static_cast<double>(perf[0].primitives) / perf[0].wallSeconds
          : 0.0;
  std::printf("Service mode: %d tenants, %d LPT shards, Ch. 6 weighting "
              "with combining queues\n",
              tenants, shards);
  support::TextTable table({"sessions", "wall s", "primitives", "prims/sec",
                            "speedup", "lock acq", "contended", "queue msgs",
                            "combined"});
  for (const PerfPoint& point : perf) {
    const double rate =
        point.wallSeconds > 0.0
            ? static_cast<double>(point.primitives) / point.wallSeconds
            : 0.0;
    char wall[32], rateText[32], speedup[32];
    std::snprintf(wall, sizeof wall, "%.3f", point.wallSeconds);
    std::snprintf(rateText, sizeof rateText, "%.0f", rate);
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  baseRate > 0.0 ? rate / baseRate : 0.0);
    table.addRow({std::to_string(point.sessions), wall,
                  std::to_string(point.primitives), rateText, speedup,
                  std::to_string(point.acquisitions),
                  std::to_string(point.contended),
                  std::to_string(point.messages),
                  std::to_string(point.combined)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ndeterministic metrics byte-identical across all %zu "
              "session counts: %s\n",
              points.size(), exitCode == 0 ? "yes" : "NO");

  if (const char* perfPath = bench.value("--perf-out")) {
    obs::BenchReport report("service_throughput_perf");
    report.setConfig("tenants", static_cast<std::int64_t>(tenants));
    report.setConfig("shards", static_cast<std::int64_t>(shards));
    report.setConfig("quick", quick);
    report.setConfig("max_sessions",
                     static_cast<std::int64_t>(maxSessions));
    for (const PerfPoint& point : perf) {
      const double rate =
          point.wallSeconds > 0.0
              ? static_cast<double>(point.primitives) / point.wallSeconds
              : 0.0;
      const std::string tag = "s" + std::to_string(point.sessions);
      report.addFigure("svc.throughput." + tag + ".primitives_per_sec",
                       rate);
      report.addFigure("svc.lock." + tag + ".contended",
                       point.contended);
    }
    obs::Registry& registry = report.registry();
    support::Histogram& contendedPerShard =
        registry.histogram(obs::names::kSvcLockContendedPerShard);
    for (std::size_t s = 0; s < last.shardContended.size(); ++s) {
      contendedPerShard.add(last.shardContended[s]);
      registry.add(obs::names::kSvcLockAcquisitions,
                   last.shardAcquisitions[s]);
      registry.add(obs::names::kSvcLockContended, last.shardContended[s]);
    }
    if (!report.writeTo(perfPath) && exitCode == 0) exitCode = 1;
  }

  return bench.finish(exitCode);
}
