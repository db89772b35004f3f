// Trace replay against the functional SMALL machine (small/machine.*).
//
// The five workload programs drive `Simulator` statistically; this
// replayer drives `SmallMachine` — real list structure in a real heap —
// from the same preprocessed traces, through the same EP model as the
// Simulator: the shared core::EpModel (small/ep_model.hpp) at the
// §5.2.1 probabilities, over a machine adapter. Fresh list values are
// synthesized deterministically from each event's recorded (n, p) shape,
// and every random draw happens in replayer logic (never in the machine),
// so one seed produces the *identical* operation sequence on every heap
// backend. The machine's representation-independent counters must
// therefore agree across backends, while the per-backend HeapStats
// diverge — which is exactly the comparison bench/heap_backend_comparison
// tabulates.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sexpr/arena.hpp"
#include "small/machine.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"

namespace small::core {

struct ReplayConfig {
  SmallMachine::Config machine;
  std::uint64_t seed = 1;

  ReplayConfig() { machine.tableSize = 2048; }
};

/// What one replay run reports: the machine's logical event counts (equal
/// across backends for the same trace/seed) and the backend's physical
/// activity (the experimental axis).
struct ReplayResult {
  std::string backend;
  SmallMachine::Stats machine;
  heap::HeapStats heap;
  std::uint64_t primitives = 0;
  std::uint64_t functionCalls = 0;
  /// Entries still in use after the final stack unwind — cyclic structure
  /// built by rplaca/rplacd; identical across backends.
  std::uint32_t residualEntries = 0;
  /// Heap cells still live after shutdown (pinned by residual entries).
  std::uint64_t residualHeapCells = 0;
  /// Scavenger counters (all zero under the default refcount policy).
  gc::GcStats gcStats;
};

/// Periodic callback out of a replay run — the service mode's sessions
/// use it to interleave shard traffic with trace-driven interpreter work.
/// `onPrimitives(total)` fires after every `everyPrimitives`-th primitive
/// (never with everyPrimitives == 0). `onMachineReady` fires once, before
/// the first event, with a reference valid until the replay call returns
/// — callers stash it to sample machine-side state (gc pause counters)
/// from inside onPrimitives. The hook runs strictly between events and
/// never touches the replayer's RNG, so a hooked replay's ReplayResult is
/// bit-identical to the unhooked one.
struct ReplayHook {
  std::uint64_t everyPrimitives = 0;
  std::function<void(std::uint64_t)> onPrimitives;
  std::function<void(const SmallMachine&)> onMachineReady;
};

/// Replay a preprocessed trace through a SmallMachine configured per
/// `config` (including which heap backend it runs on).
ReplayResult replayTrace(const ReplayConfig& config,
                         const trace::PreprocessedTrace& trace);
ReplayResult replayTrace(const ReplayConfig& config,
                         const trace::PreprocessedTrace& trace,
                         const ReplayHook& hook);

/// Replay a mmap'd binary trace without ever materializing it: records
/// are decoded in caller-sized batches (trace::BinaryDecoder), run
/// through the incremental §5.2.1 preprocessor, and fed straight to the
/// machine, so the resident footprint is O(batch) regardless of trace
/// length and the whole loop stays in i-cache. Bit-identical to
/// replayTrace(config, preprocess(mapped.toTrace())) for the same seed.
ReplayResult replayMappedTrace(const ReplayConfig& config,
                               const trace::MappedTrace& mapped,
                               std::size_t batchSize = 1024);
ReplayResult replayMappedTrace(const ReplayConfig& config,
                               const trace::MappedTrace& mapped,
                               std::size_t batchSize,
                               const ReplayHook& hook);

}  // namespace small::core
