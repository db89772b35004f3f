// The canonical metric naming scheme — the one place every obs name is
// declared (DESIGN.md §obs documents the conventions).
//
// Names are dot-separated, lowercase, `<subsystem>.<event>`:
//   mem.*   — memory-management events shared across accounting schemes.
//             The LPT's reference counting (core::LptStats) and the gc
//             subsystem's collectors (gc::GcStats) historically counted
//             the same physical events under different field names;
//             both contribute to these shared names so
//             table5_2_3_lpt_activity and gc_comparison report from the
//             same counters:
//               mem.allocs  <- LptStats.gets            (entry allocations)
//               mem.frees   <- LptStats.frees + GcStats.cellsReclaimed
//               mem.rc_ops  <- LptStats.refOps + GcStats.barrierOps
//   lpt.*   — List Processor Table events beyond the shared ones.
//   lp.*    — List Processor request stream (hits/splits/compression).
//   heap.*  — physical heap-backend activity (heap::HeapStats).
//   gc.*    — collection machinery (gc::GcStats) and pause distributions.
//   lisp.*  — interpreter primitive dispatch ("lisp.prim.<name>").
//   vm.*    — emulator instruction dispatch ("vm.op.<mnemonic>").
//   sweep.* — parallel harness task accounting.
//   bench.* — per-bench figures (free-form under the bench's namespace).
//
// Family conventions: monotone event tallies are counters (sum-merge);
// high-water marks end in `.max` or `.peak` and are max metrics
// (max-merge); distributions are histograms (bucket-add merge). Merge
// associativity is what keeps `--metrics-out` byte-identical at any
// `--jobs` count.
#pragma once

namespace small::obs::names {

// --- shared memory accounting (LptStats ∪ GcStats) ---
inline constexpr char kMemAllocs[] = "mem.allocs";
inline constexpr char kMemFrees[] = "mem.frees";
inline constexpr char kMemRcOps[] = "mem.rc_ops";

// --- LPT (core::LptStats, core::Lpt) ---
inline constexpr char kLptLazyDecrements[] = "lpt.lazy_decrements";
inline constexpr char kLptMaxRefCount[] = "lpt.ref_count.max";
inline constexpr char kLptStackBitMessages[] = "lpt.stack_bit_messages";
inline constexpr char kLptSettledLazyFrees[] = "lpt.settled_lazy_frees";
inline constexpr char kLptLifetimeMaxCounts[] = "lpt.lifetime_max_counts";
inline constexpr char kLptPeakOccupancy[] = "lpt.occupancy.peak";
// Telemetry series (obs/timeseries.hpp): instantaneous in-use entry
// count sampled on the deterministic epoch plane.
inline constexpr char kLptOccupancy[] = "lpt.occupancy";
inline constexpr char kLptHits[] = "lpt.hits";
inline constexpr char kLptMisses[] = "lpt.misses";

// --- List Processor request stream (core::LpStats) ---
inline constexpr char kLpSplits[] = "lp.splits";
inline constexpr char kLpModifies[] = "lp.modifies";
inline constexpr char kLpCompressionMerges[] = "lp.compression_merges";
inline constexpr char kLpPseudoOverflows[] = "lp.pseudo_overflows";
inline constexpr char kLpTrueOverflows[] = "lp.true_overflows";
inline constexpr char kLpCycleRecoveries[] = "lp.cycle_recoveries";
inline constexpr char kLpCycleReclaimed[] = "lp.cycle_entries_reclaimed";
inline constexpr char kLpOverflowModeOps[] = "lp.overflow_mode_ops";
inline constexpr char kLpHeapFrees[] = "lp.heap_frees";
inline constexpr char kLpEpRefOps[] = "lp.ep_ref_ops";
inline constexpr char kLpEpMaxRefCount[] = "lp.ep_ref_count.max";

// --- physical heap backends (heap::HeapStats) ---
inline constexpr char kHeapAllocs[] = "heap.allocs";
inline constexpr char kHeapFrees[] = "heap.frees";
inline constexpr char kHeapSplits[] = "heap.splits";
inline constexpr char kHeapMerges[] = "heap.merges";
inline constexpr char kHeapReads[] = "heap.reads";
inline constexpr char kHeapWrites[] = "heap.writes";
inline constexpr char kHeapPeakLiveCells[] = "heap.live_cells.peak";

// --- collection machinery (gc::GcStats) ---
inline constexpr char kGcCollections[] = "gc.collections";
inline constexpr char kGcCellsTraced[] = "gc.cells_traced";
inline constexpr char kGcHeapTouches[] = "gc.heap_touches";
inline constexpr char kGcTableTouches[] = "gc.table_touches";
inline constexpr char kGcDeferredDecrements[] = "gc.deferred_decrements";
inline constexpr char kGcZctOverflows[] = "gc.zct_overflows";
inline constexpr char kGcZctHighWater[] = "gc.zct_occupancy.max";
inline constexpr char kGcMinorCollections[] = "gc.minor_collections";
inline constexpr char kGcCellsPromoted[] = "gc.cells_promoted";
inline constexpr char kGcFullCycles[] = "gc.full_cycles";
inline constexpr char kGcMaxPause[] = "gc.pause.max";
inline constexpr char kGcTotalPause[] = "gc.pause.total";
inline constexpr char kGcPauseHistogram[] = "gc.pause.touch_units";
// Telemetry series: per-collection pause cost (epoch = script op index)
// and the live-cell count sampled between collections.
inline constexpr char kGcPause[] = "gc.pause";
inline constexpr char kGcLiveCells[] = "gc.live_cells";

// --- interpreter / emulator dispatch ---
inline constexpr char kLispPrimPrefix[] = "lisp.prim.";  // + primitive name
inline constexpr char kLispSteps[] = "lisp.eval_steps";
inline constexpr char kVmOpPrefix[] = "vm.op.";          // + mnemonic
inline constexpr char kVmInstructions[] = "vm.instructions";
inline constexpr char kVmListOps[] = "vm.list_ops";
inline constexpr char kVmFunctionCalls[] = "vm.function_calls";
inline constexpr char kVmMaxStackDepth[] = "vm.stack_depth.max";

// --- parallel sweep harness ---
inline constexpr char kSweepTasks[] = "sweep.tasks";

// --- scenario workload families (workloads/families/) ---
// Generator-side accounting: what the family generators emitted, as
// opposed to what a simulator did with it. All deterministic functions
// of (family, scale, seed, knobs).
inline constexpr char kWorkloadPrimitives[] = "workload.primitives";
inline constexpr char kWorkloadFunctionCalls[] = "workload.function_calls";
inline constexpr char kWorkloadObjectsCreated[] = "workload.objects_created";
inline constexpr char kWorkloadLiveObjectsPeak[] =
    "workload.live_objects.peak";
inline constexpr char kWorkloadChainedCar[] = "workload.chained_car";
inline constexpr char kWorkloadChainedCdr[] = "workload.chained_cdr";
inline constexpr char kWorkloadMaxCallDepth[] = "workload.call_depth.max";
inline constexpr char kWorkloadPrimPrefix[] = "workload.prim.";  // + name

// --- multi-session service mode (multilisp/service.hpp) ---
// The deterministic family: pure functions of (session id, trace, seed),
// safe for --metrics-out at any session count.
inline constexpr char kSvcPrimitives[] = "svc.primitives_replayed";
inline constexpr char kSvcPublished[] = "svc.objects_published";
inline constexpr char kSvcRefCopies[] = "svc.ref_copies";
inline constexpr char kSvcRefDestroys[] = "svc.ref_destroys";
inline constexpr char kSvcIndirections[] = "svc.indirections_created";
inline constexpr char kSvcQueueEnqueued[] = "svc.queue.updates_enqueued";
inline constexpr char kSvcQueueCombined[] = "svc.queue.updates_combined";
inline constexpr char kSvcQueueMessages[] = "svc.queue.messages_sent";
inline constexpr char kSvcQueueFlushes[] = "svc.queue.flushes";
inline constexpr char kSvcQueueDepths[] = "svc.queue.depth_at_flush";
// Telemetry series (deterministic plane): sampled at tick epochs —
// pure functions of (session id, trace, seed) per the service's
// deterministic-plane contract.
inline constexpr char kSvcQueueDepth[] = "svc.queue.depth";
inline constexpr char kSvcHeldRefs[] = "svc.held_refs";
// The schedule-dependent family: lock traffic on the sharded LPT.
// Perf plane only (stdout / --perf-out).
inline constexpr char kSvcLockAcquisitions[] = "svc.lock.acquisitions";
inline constexpr char kSvcLockContended[] = "svc.lock.contended";
inline constexpr char kSvcLockContendedPerShard[] =
    "svc.lock.contended_per_shard";
// Telemetry counter tracks (perf plane, --trace-out only): cumulative
// contended acquisitions of a session's home shard, and the session's
// observed replay rate.
inline constexpr char kSvcShardContention[] = "svc.shard.contention";
inline constexpr char kSvcReplayRate[] = "svc.replay.primitives_per_sec";

}  // namespace small::obs::names
