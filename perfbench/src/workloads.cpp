#include <optional>
#include <sstream>
#include <vector>

#include "analysis/census.hpp"
#include "analysis/chaining.hpp"
#include "analysis/list_sets.hpp"
#include "gc/collector.hpp"
#include "gc/script.hpp"
#include "heap/backend.hpp"
#include "multilisp/service.hpp"
#include "small/gc_baseline.hpp"
#include "small/machine_replay.hpp"
#include "small/simulator.hpp"
#include "spans.hpp"
#include "support/parallel.hpp"
#include "trace/binary.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "workload.hpp"
#include "workloads/families/family.hpp"

namespace perfbench {
namespace {

using namespace small;

/// Seed of the traces set-up generates (the one bench/ uses for the
/// Table 5.1 suite). Set-up inputs are the same on every run: a generated
/// trace's cost varies with its generator seed (Lyra's EP stack, and with
/// it the simulate time, differs up to 2x between seeds), so seeding them
/// from --seed would make runs do unequal work. --seed drives the op seed
/// cycle: the EP model, replay and script seeds, and ch3_locality's
/// generation.
constexpr std::uint64_t kTraceSeed = 2026;

/// Space-separated "key=value" text of integers, for fingerprints.
class Fields {
 public:
  explicit Fields(std::string head) { out_ << head; }
  Fields& operator()(const char* key, std::uint64_t value) {
    out_ << ' ' << key << '=' << value;
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string machineFields(const std::string& head,
                          const core::SmallMachine::Stats& s) {
  return Fields(head)("gets", s.gets)("frees", s.frees)("splits", s.splits)(
             "hits", s.hits)("merges", s.merges)("conses", s.conses)(
             "modifies", s.modifies)("readlists", s.readLists)(
             "pseudo", s.pseudoOverflows)("refops", s.refOps)(
             "recoveries", s.cycleRecoveries)("heapfrees",
                                              s.heapFreesServiced)(
             "freeq_hw", s.freeQueueHighWater)("peak", s.peakEntriesInUse)
      .str();
}

std::string heapFields(const std::string& head, const heap::HeapStats& s) {
  return Fields(head)("allocs", s.allocs)("frees", s.frees)(
             "splits", s.splits)("merges", s.merges)("reads", s.reads)(
             "writes", s.writes)("live", s.liveCells)("peak",
                                                       s.peakLiveCells)
      .str();
}

std::string gcFields(const std::string& head, const gc::GcStats& s) {
  return Fields(head)("collections", s.collections)(
             "reclaimed", s.cellsReclaimed)("traced", s.cellsTraced)(
             "heap_touches", s.heapTouches)("table_touches", s.tableTouches)(
             "barrier", s.barrierOps)("max_pause", s.maxPause)(
             "total_pause", s.totalPause)("minor", s.minorCollections)(
             "promoted", s.cellsPromoted)("full", s.fullCycles)
      .str();
}

std::string replayFields(const std::string& head,
                         const core::ReplayResult& r) {
  return machineFields(head + " machine", r.machine) + "\n" +
         heapFields(head + " heap", r.heap) + "\n" +
         gcFields(head + " gc", r.gcStats) + "\n" +
         Fields(head + " replay")("primitives", r.primitives)(
             "calls", r.functionCalls)("residual_entries", r.residualEntries)(
             "residual_cells", r.residualHeapCells)
             .str();
}

// ---------------------------------------------------------------------
// ch3_locality: the Chapter 3 pipeline, generation included in the op.

class Ch3Locality final : public Workload {
 public:
  void setup() override {
    // The inputs are the five calibrated profiles at a reduced scale
    // (about 90k primitives in all); generation belongs to the op.
    constexpr double kScale = 0.25;
    profiles_ = {trace::slangProfile(kScale), trace::plagenProfile(kScale),
                 trace::lyraProfile(kScale), trace::editorProfile(kScale),
                 trace::pearlProfile(kScale)};
  }

  // Building the five profiles takes about 50 ns: time 10-ms blocks.
  int setupReps() const override { return 200'000; }

  OpOutcome op(std::uint64_t seed, Ledger* ledger) override {
    OpOutcome outcome;
    support::Rng rng(seed);
    for (const trace::WorkloadProfile& profile : profiles_) {
      trace::Trace raw;
      {
        LayerSpan span("trace.generate");
        raw = trace::generate(profile, rng);
        span.setWork(profile.primitiveCalls);
      }
      const trace::PreprocessedTrace pre =
          call("trace.preprocess", [&] { return trace::preprocess(raw); });
      const auto [census, shapes] = call("analysis.census", [&] {
        return std::make_pair(analysis::censusPrimitives(raw),
                              analysis::censusShapes(raw));
      });
      const analysis::ChainingStats chaining = call(
          "analysis.chaining", [&] { return analysis::analyzeChaining(pre); });
      const analysis::ListSetPartition sets = call(
          "analysis.list_sets", [&] { return analysis::partitionListSets(pre); });

      if (census.total != pre.primitiveCount ||
          sets.traceLength != pre.primitiveCount) {
        outcome.failure = profile.name + ": census total " +
                          std::to_string(census.total) +
                          " != trace primitives " +
                          std::to_string(pre.primitiveCount);
      }
      outcome.primitives += pre.primitiveCount;
      if (ledger != nullptr) {
        std::uint64_t chained = 0;
        std::uint64_t withList = 0;
        for (std::size_t p = 0; p < trace::kPrimitiveCount; ++p) {
          chained += chaining.chained[p];
          withList += chaining.total[p];
        }
        ledger->add("analysis.list_sets.count", sets.sets.size());
        ledger->line(Fields(profile.name)("primitives", pre.primitiveCount)(
                         "unique_lists", pre.uniqueListCount)(
                         "car", census.counts[0])("cdr", census.counts[1])(
                         "cons", census.counts[2])("shape_n", shapes.n.count())(
                         "chained", chained)("with_list", withList)(
                         "list_sets", sets.sets.size())(
                         "list_refs", sets.totalReferences)
                         .str());
      }
    }
    return outcome;
  }

 private:
  std::vector<trace::WorkloadProfile> profiles_;
};

// ---------------------------------------------------------------------
// ch5_lpt: the §5.2.1 EP model driving the LPT and the comparison cache.

class Ch5Lpt final : public Workload {
 public:
  void setup() override {
    // Drop the previous inputs first: a repeated set-up must not hold two
    // copies at once, or peak_rss_mb would measure the repetition.
    plagen_ = {};
    lyra_ = {};
    support::Rng rng(kTraceSeed);
    plagen_ = prepare(trace::plagenSimProfile(), rng);
    lyra_ = prepare(trace::lyraSimProfile(), rng);
  }

  OpOutcome op(std::uint64_t seed, Ledger* ledger) override {
    OpOutcome outcome;
    // PlaGen on a table small enough to pseudo-overflow, with the
    // comparison cache observing the same access stream.
    core::SimConfig squeezed;
    squeezed.tableSize = kSqueezedTable;
    squeezed.driveCache = true;
    squeezed.seed = seed;
    simulate("plagen/squeezed", squeezed, plagen_, outcome, ledger);
    // PlaGen on the no-overflow table.
    core::SimConfig roomy;
    roomy.tableSize = 1u << 18;
    roomy.seed = seed;
    const core::SimResult big =
        simulate("plagen/2^18", roomy, plagen_, outcome, ledger);
    if (big.trueOverflowOccurred) {
      outcome.failure = "plagen/2^18: true overflow on the no-overflow table";
    }
    // Lyra at 2048 entries: the deep EP stack.
    core::SimConfig lyra;
    lyra.tableSize = 2048;
    lyra.seed = seed;
    simulate("lyra/2048", lyra, lyra_, outcome, ledger);
    return outcome;
  }

 private:
  // About 0.74x the PlaGen trace's peak demand (~300 entries): compression
  // runs every op, without falling into true-overflow bypass.
  static constexpr std::uint32_t kSqueezedTable = 224;

  static trace::PreprocessedTrace prepare(const trace::WorkloadProfile& profile,
                                          support::Rng& rng) {
    trace::Trace raw;
    {
      LayerSpan span("trace.generate");
      raw = trace::generate(profile, rng);
      span.setWork(profile.primitiveCalls);
    }
    return call("trace.preprocess", [&] { return trace::preprocess(raw); });
  }

  core::SimResult simulate(const char* label, const core::SimConfig& config,
                           const trace::PreprocessedTrace& pre,
                           OpOutcome& outcome, Ledger* ledger) {
    std::optional<core::Simulator> sim;
    call("small.sim.init", [&] { sim.emplace(config, pre); });
    core::SimResult r;
    {
      LayerSpan span("small.sim.run");
      r = sim->run();
      span.setWork(r.primitivesSimulated);
    }
    if (r.primitivesSimulated != pre.primitiveCount) {
      outcome.failure = std::string(label) + ": simulated " +
                        std::to_string(r.primitivesSimulated) +
                        " primitives of " +
                        std::to_string(pre.primitiveCount);
    }
    outcome.primitives += r.primitivesSimulated;
    if (ledger != nullptr) {
      ledger->add("small.lpt.hits", r.lptHits);
      ledger->add("small.lpt.accesses", r.lptHits + r.lptMisses);
      ledger->add("small.lpt.splits", r.lpStats.splits);
      ledger->add("small.lpt.pseudo_overflows", r.lpStats.pseudoOverflows);
      ledger->add("small.lpt.merges", r.lpStats.merges);
      ledger->add("small.lpt.ref_ops", r.lptStats.refOps);
      ledger->max("small.lpt.peak_occupancy", r.peakOccupancy);
      ledger->add("cache.hits", r.cacheHits);
      ledger->add("cache.accesses", r.cacheHits + r.cacheMisses);
      ledger->line(Fields(label)("primitives", r.primitivesSimulated)(
                       "calls", r.functionCalls)("hits", r.lptHits)(
                       "misses", r.lptMisses)("splits", r.lpStats.splits)(
                       "merges", r.lpStats.merges)(
                       "pseudo", r.lpStats.pseudoOverflows)(
                       "true_overflows", r.lpStats.trueOverflows)(
                       "recoveries", r.lpStats.cycleRecoveries)(
                       "refops", r.lptStats.refOps)("gets", r.lptStats.gets)(
                       "frees", r.lptStats.frees)("peak", r.peakOccupancy)(
                       "cache_hits", r.cacheHits)("cache_misses",
                                                  r.cacheMisses)
                       .str());
    }
    return r;
  }

  trace::PreprocessedTrace plagen_;
  trace::PreprocessedTrace lyra_;
};

// ---------------------------------------------------------------------
// Shared by the two SMTR-fed workloads.

/// Write `raw` as an SMTR file and map it.
trace::MappedTrace writeAndMap(const trace::Trace& raw,
                               const std::filesystem::path& file) {
  call("trace.smtr.write",
       [&] { trace::saveBinaryFile(raw, file.string()); });
  return call("trace.smtr.open",
              [&] { return trace::MappedTrace::open(file.string()); });
}

/// One full BinaryDecoder pass; returns a failure text.
std::string decodePass(const trace::MappedTrace& mapped) {
  LayerSpan span("trace.smtr.decode");
  trace::BinaryDecoder decoder(mapped);
  std::vector<trace::Event> batch(1024);
  std::uint64_t primitives = 0;
  while (const std::size_t k = decoder.decodeBatch(batch)) {
    for (std::size_t i = 0; i < k; ++i) {
      primitives += batch[i].kind == trace::EventKind::kPrimitive;
    }
  }
  span.setWork(primitives);
  if (!decoder.done()) return mapped.path() + ": decode stopped early";
  return {};
}

// ---------------------------------------------------------------------
// machine_gc: SMTR replay on every heap backend under the incremental
// collector, then the five collectors on one mutator script.

class MachineGc final : public Workload {
 public:
  explicit MachineGc(const std::filesystem::path& workDir)
      : file_(workDir / "machine_gc.smtr") {}

  void setup() override {
    mapped_.reset();  // as in Ch5Lpt::setup: one copy of the inputs at a time
    pre_ = {};
    support::Rng rng(kTraceSeed);
    const trace::WorkloadProfile profile = trace::plagenSimProfile();
    trace::Trace raw;
    {
      LayerSpan span("trace.generate");
      raw = trace::generate(profile, rng);
      span.setWork(profile.primitiveCalls);
    }
    mapped_.emplace(writeAndMap(raw, file_));
    pre_ = call("trace.preprocess", [&] { return trace::preprocess(raw); });
  }

  OpOutcome op(std::uint64_t seed, Ledger* ledger) override {
    OpOutcome outcome;
    std::string firstFields;
    for (const heap::HeapBackendKind kind : heap::kAllHeapBackendKinds) {
      const std::string backend = heap::heapBackendName(kind);
      core::ReplayConfig config;
      config.machine.heapBackend = kind;
      config.machine.gcPolicy = gc::Policy::kIncremental;
      config.machine.gcTriggerCells = kGcTriggerCells;
      config.seed = seed;
      core::ReplayResult r;
      {
        LayerSpan span(("small.replay." + backend).c_str());
        r = core::replayMappedTrace(config, *mapped_);
        span.setWork(r.primitives);
      }
      outcome.primitives += r.primitives;
      const std::string fields = machineFields("machine", r.machine);
      if (firstFields.empty()) {
        firstFields = fields;
      } else if (fields != firstFields) {
        outcome.failure = "machine stats differ on " + backend;
      }
      if (ledger != nullptr) {
        if (kind == heap::HeapBackendKind::kTwoPointer) {
          ledger->add("small.machine.ref_ops", r.machine.refOps);
          ledger->add("small.machine.splits", r.machine.splits);
        }
        ledger->add("heap.touches." + backend, r.heap.touches());
        ledger->max("heap.peak_live_cells." + backend, r.heap.peakLiveCells);
        ledger->add("gc.machine.slices", r.gcStats.collections);
        ledger->max("gc.machine.pause_max", r.gcStats.maxPause);
        ledger->add("gc.machine.pause_total", r.gcStats.totalPause);
        ledger->line(replayFields(backend, r));
      }
    }

    const gc::Script script = call("gc.script.build", [&] {
      return gc::scriptFromTrace(pre_, gc::ScriptOptions{}, seed);
    });
    outcome.primitives += pre_.primitiveCount;
    const core::GcBaselineResult baseline =
        call("small.gc_baseline", [&] { return core::runScriptOnLpt(script); });
    for (const gc::Policy policy : gc::kAllCollectorPolicies) {
      const std::string name = gc::policyName(policy);
      const auto backend =
          heap::makeHeapBackend(heap::HeapBackendKind::kTwoPointer);
      gc::Collector::Options options;
      options.triggerLiveCells = kScriptTriggerCells;
      const auto collector = gc::makeCollector(policy, *backend, options);
      const gc::ScriptResult r = call(("gc.run_script." + name).c_str(), [&] {
        return gc::runScript(*collector, script);
      });
      if (r.finalLiveCells != baseline.finalLiveEntries ||
          r.rootReachable != baseline.rootReachable) {
        outcome.failure = name + ": live set " +
                          std::to_string(r.finalLiveCells) +
                          " differs from the LPT baseline's " +
                          std::to_string(baseline.finalLiveEntries);
      }
      if (ledger != nullptr) {
        ledger->add("gc.cells_traced." + name, r.stats.cellsTraced);
        ledger->line(gcFields("script " + name, r.stats) +
                     " live=" + std::to_string(r.finalLiveCells));
      }
    }
    if (ledger != nullptr) {
      ledger->line(Fields("script")("ops", script.ops.size())(
                       "live", baseline.finalLiveEntries)(
                       "cycle_reclaimed", baseline.cycleReclaimed)
                       .str());
    }
    return outcome;
  }

  std::string tracedPasses(std::uint64_t, Ledger&) override {
    return decodePass(*mapped_);
  }

 private:
  // Low enough that every op's replays and scripts genuinely collect.
  static constexpr std::uint64_t kGcTriggerCells = 1024;
  static constexpr std::uint64_t kScriptTriggerCells = 1024;

  std::filesystem::path file_;
  std::optional<trace::MappedTrace> mapped_;
  trace::PreprocessedTrace pre_;
};

// ---------------------------------------------------------------------
// service_mixed: four SMTR tenants replayed concurrently with shard
// publish/copy/retire traffic through the combining queues.

class ServiceMixed final : public Workload {
 public:
  explicit ServiceMixed(std::filesystem::path workDir)
      : workDir_(std::move(workDir)) {}

  void setup() override {
    namespace fam = workloads::families;
    mapped_.clear();  // as in Ch5Lpt::setup: one copy of the inputs at a time
    support::Rng rng(kTraceSeed);
    trace::WorkloadProfile paper[] = {trace::plagenProfile(),
                                      trace::editorProfile()};
    const fam::FamilyKind modern[] = {fam::FamilyKind::kAgentLoop,
                                      fam::FamilyKind::kSessionChurn};
    // Every tenant has the same length, and sessions alternate paper /
    // modern tenants (see serve()).
    for (int t = 0; t < 4; ++t) {
      trace::Trace raw;
      if (t % 2 == 0) {
        trace::WorkloadProfile& profile = paper[t / 2];
        profile.primitiveCalls = kTenantPrimitives;
        LayerSpan span("trace.generate");
        raw = trace::generate(profile, rng);
        span.setWork(profile.primitiveCalls);
      } else {
        fam::FamilyConfig config;
        config.scale = kTenantPrimitives;
        config.seed = support::deriveTaskSeed(kTraceSeed, t);
        LayerSpan span("workloads.family.generate");
        raw = fam::generateTrace(modern[t / 2], config);
        span.setWork(config.scale);
      }
      mapped_.push_back(writeAndMap(
          raw, workDir_ / ("tenant" + std::to_string(t) + ".smtr")));
    }
  }

  int threads() const override { return kConcurrency; }

  OpOutcome op(std::uint64_t seed, Ledger* ledger) override {
    OpOutcome outcome;
    const multilisp::ServiceResult result = serve(seed, kConcurrency);
    outcome.primitives = result.totalPrimitives;
    if (result.residualObjects != 0 || result.residualEntries != 0) {
      outcome.failure = "residual objects=" +
                        std::to_string(result.residualObjects) +
                        " entries=" + std::to_string(result.residualEntries);
    }
    if (ledger != nullptr) record(result, *ledger);
    return outcome;
  }

  std::string tracedPasses(std::uint64_t seed, Ledger& ledger) override {
    for (const trace::MappedTrace& mapped : mapped_) {
      std::string failure = decodePass(mapped);
      if (!failure.empty()) return failure;
    }
    // The deterministic plane must not depend on the schedule. These two
    // runs are checks, not ops: keep them out of the span log.
    SpanLog* const log = gLog;
    gLog = nullptr;
    const std::string one = sessionFields(serve(seed, 1));
    const std::string two = sessionFields(serve(seed, kConcurrency));
    gLog = log;
    ledger.line("concurrency 1 == 2: " + std::string(one == two ? "yes" : "NO"));
    if (one != two) return "per-session stats differ between concurrency 1 and 2";
    return {};
  }

 private:
  static constexpr int kConcurrency = 2;
  static constexpr std::uint64_t kTenantPrimitives = 7500;
  // Each tenant file is replayed by this many sessions (each with its own
  // derived replay seed), so an op is 16 short sessions rather than 4
  // long ones. The two workers claim sessions dynamically; with 4 long
  // sessions one slow vCPU set the op's makespan, and op latencies split
  // into a fast and a slow mode (about 33 and 48 ms) whose shares decided
  // the run's median. With 16 the faster worker takes more of them.
  static constexpr std::size_t kSessionsPerTenant = 4;

  multilisp::ServiceResult serve(std::uint64_t seed, int concurrency) const {
    multilisp::ServiceConfig config;
    config.replay.seed = seed;
    std::vector<multilisp::SessionSource> sources(mapped_.size() *
                                                  kSessionsPerTenant);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      sources[i].mapped = &mapped_[i % mapped_.size()];
    }
    LayerSpan span("multilisp.service");
    multilisp::ServiceResult result =
        multilisp::runService(config, sources, concurrency);
    span.setWork(result.totalPrimitives);
    return result;
  }

  static std::string sessionFields(const multilisp::ServiceResult& result) {
    std::string out;
    for (std::size_t i = 0; i < result.sessions.size(); ++i) {
      const multilisp::SessionStats& s = result.sessions[i];
      const std::string head = "session" + std::to_string(i);
      out += replayFields(head, s.replay) + "\n" +
             Fields(head + " refs")("published", s.published)(
                 "copies", s.refCopies)("destroys", s.refDestroys)(
                 "indirections", s.indirections)("enqueued", s.queue.enqueued)(
                 "combined", s.queue.combined)("messages", s.queue.messages)(
                 "flushes", s.queue.flushes)
                 .str() +
             "\n";
    }
    for (std::size_t i = 0; i < result.shardLpt.size(); ++i) {
      const core::LptStats& s = result.shardLpt[i];
      out += Fields("shard" + std::to_string(i))("refops", s.refOps)(
                 "gets", s.gets)("frees", s.frees)("max_count", s.maxRefCount)
                 .str() +
             "\n";
    }
    return out;
  }

  static void record(const multilisp::ServiceResult& result, Ledger& ledger) {
    for (const multilisp::SessionStats& s : result.sessions) {
      ledger.add("small.machine.ref_ops", s.replay.machine.refOps);
      ledger.add("small.machine.splits", s.replay.machine.splits);
      ledger.add("heap.touches.two-pointer", s.replay.heap.touches());
      ledger.max("heap.peak_live_cells.two-pointer",
                 s.replay.heap.peakLiveCells);
      ledger.add("multilisp.indirections", s.indirections);
      ledger.add("multilisp.queue.combined", s.queue.combined);
      ledger.add("multilisp.queue.enqueued", s.queue.enqueued);
    }
    for (const std::uint64_t a : result.shardAcquisitions) {
      ledger.perfSums["multilisp.shard.acquisitions"] += a;
    }
    for (const std::uint64_t c : result.shardContended) {
      ledger.perfSums["multilisp.shard.contended"] += c;
    }
    ledger.detail += sessionFields(result);
  }

  std::filesystem::path workDir_;
  std::vector<trace::MappedTrace> mapped_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::filesystem::path& workDir) {
  if (name == "ch3_locality") return std::make_unique<Ch3Locality>();
  if (name == "ch5_lpt") return std::make_unique<Ch5Lpt>();
  if (name == "machine_gc") return std::make_unique<MachineGc>(workDir);
  if (name == "service_mixed") return std::make_unique<ServiceMixed>(workDir);
  return nullptr;
}

}  // namespace perfbench
