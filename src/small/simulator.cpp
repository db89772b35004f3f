#include "small/simulator.hpp"

#include <algorithm>

#include "obs/names.hpp"

// Compile with -DSMALL_SIM_VERIFY to enable exhaustive invariant checking
// after every simulated event: stack items must reference live entries,
// the EP-side reference table must agree with the stack, and every entry's
// refcount must equal its field references plus EP references. Expensive;
// meant for debugging the simulator itself.
#ifdef SMALL_SIM_VERIFY
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>
#endif

namespace small::core {

using trace::EventKind;
using trace::PreprocessedEvent;
using trace::Primitive;

namespace {

// Once the top-level frame holds this many items, results are bound
// instead of pushed (EpModel::disposeValue). The machine replayer uses
// 256; each value is part of its own seeded results.
constexpr std::size_t kTopLevelStackBound = 512;

}  // namespace

Simulator::Simulator(const SimConfig& config,
                     const trace::PreprocessedTrace& trace)
    : config_(config),
      trace_(trace),
      rng_(config.seed),
      lp_(config, rng_),
      ep_(LpOps{lp_}, rng_, config_, kTopLevelStackBound) {
  if (config_.driveCache) {
    const std::uint64_t entries =
        config_.cacheEntries ? config_.cacheEntries : config_.tableSize;
    const std::uint64_t lines =
        std::max<std::uint64_t>(entries / config_.cacheLineSize, 1);
    cache_ = std::make_unique<cache::LruCache>(lines, config_.cacheLineSize);
  }
}

SimResult Simulator::run() {
  for (const PreprocessedEvent& event : trace_.events) {
    switch (event.kind) {
      case EventKind::kFunctionEnter:
        ++functionCalls_;
        ep_.enterFunction(event.argCount);
#ifdef SMALL_SIM_VERIFY
        verifyStackRefs("enter");
#endif
        break;
      case EventKind::kFunctionExit:
        ep_.exitFunction();
#ifdef SMALL_SIM_VERIFY
        verifyStackRefs("exit");
#endif
        break;
      case EventKind::kPrimitive:
        onPrimitive(event);
        sampleOccupancy();
#ifdef SMALL_SIM_VERIFY
        verifyStackRefs("prim");
        verifyRefCounts(event);
#endif
        break;
    }
  }

  if (telemetrySnap_ != nullptr) telemetrySnap_->finish(primitives_);

  SimResult result;
  result.lptStats = lp_.lpt().stats();
  result.lpStats = lp_.stats();
  result.lifetimeMaxCounts = lp_.lpt().lifetimeMaxCounts();
  result.lptHits = lp_.stats().hits;
  result.lptMisses = lp_.stats().splits;
  const std::uint64_t accesses = result.lptHits + result.lptMisses;
  result.lptHitRate =
      accesses == 0 ? 0.0
                    : static_cast<double>(result.lptHits) /
                          static_cast<double>(accesses);
  result.cacheHits = cacheHits_;
  result.cacheMisses = cacheMisses_;
  const std::uint64_t cacheAccesses = cacheHits_ + cacheMisses_;
  result.cacheHitRate =
      cacheAccesses == 0 ? 0.0
                         : static_cast<double>(cacheHits_) /
                               static_cast<double>(cacheAccesses);
  result.peakOccupancy = peakOccupancy_;
  result.averageOccupancy = occupancy_.mean();
  result.pseudoOverflowOccurred = lp_.stats().pseudoOverflows > 0;
  result.trueOverflowOccurred = lp_.stats().trueOverflows > 0;
  result.primitivesSimulated = primitives_;
  result.functionCalls = functionCalls_;
  return result;
}


#ifdef SMALL_SIM_VERIFY
void Simulator::verifyStackRefs(const char* where) {
  if (!ep_.listBitsConsistent()) {
    std::fprintf(stderr, "VERIFY(%s): EP list-slot bitmap disagrees with the "
                 "stack at prim#%llu\n",
                 where, (unsigned long long)primitives_);
    std::abort();
  }
  std::unordered_map<EntryId, std::uint32_t> held;
  for (const auto& item : ep_.stack()) {
    if (item.value.kind == EpValue::Kind::kEntry) ++held[item.value.id];
  }
  for (const auto& [id, count] : held) {
    if (!lp_.lpt().entry(id).inUse) {
      std::fprintf(stderr, "VERIFY(%s): freed entry %u on stack x%u at prim#%llu\n",
                   where, id, count, (unsigned long long)primitives_);
      std::abort();
    }
    if (config_.splitRefCounts) {
      // Split mode: the LPT count holds internal references only; the
      // stack's presence is represented by the StackBit.
      if (!lp_.lpt().entry(id).stackBit) {
        std::fprintf(stderr,
                     "VERIFY(%s): entry %u stack-held but StackBit clear "
                     "at prim#%llu\n",
                     where, id, (unsigned long long)primitives_);
        std::abort();
      }
    } else if (lp_.lpt().entry(id).refCount < count) {
      std::fprintf(stderr, "VERIFY(%s): entry %u rc=%u < stack held %u at prim#%llu\n",
                   where, id, lp_.lpt().entry(id).refCount, count,
                   (unsigned long long)primitives_);
      std::abort();
    }
    if (lp_.externalRefs(id) != count) {
      std::fprintf(stderr, "VERIFY(%s): entry %u held %u times but epRefs=%u at prim#%llu\n",
                   where, id, count, lp_.externalRefs(id),
                   (unsigned long long)primitives_);
      std::abort();
    }
  }
}

void Simulator::verifyRefCounts(const PreprocessedEvent& event) {
  // Recompute each entry's expected refcount: field references from every
  // entry (in-use or lazily freed) plus EP references.
  // Ids at or above the high-water mark were never allocated, so they
  // neither hold nor receive references.
  const Lpt& lpt = lp_.lpt();
  std::vector<std::uint32_t> expected(lpt.highWater(), 0);
  for (EntryId id = 0; id < lpt.highWater(); ++id) {
    const LptEntry& e = lpt.entry(id);
    if (e.car != kNoEntry) ++expected[e.car];
    if (e.cdr != kNoEntry) ++expected[e.cdr];
  }
  for (EntryId id = 0; id < lpt.highWater(); ++id) {
    // In split mode EP references live in the EP table, not in the LPT
    // count.
    if (!config_.splitRefCounts) expected[id] += lp_.externalRefs(id);
    const LptEntry& e = lpt.entry(id);
    if (e.inUse && e.refCount != expected[id]) {
      std::fprintf(stderr,
                   "VERIFY: entry %u rc=%u expected=%u after prim %d "
                   "(event #%llu)\n",
                   id, e.refCount, expected[id], (int)event.primitive,
                   (unsigned long long)primitives_);
      std::abort();
    }
  }
}
#endif
void Simulator::attachTelemetry(obs::TelemetryBuffer* buffer,
                                std::uint64_t every) {
  if (buffer == nullptr || !buffer->enabled()) return;
  telemetrySnap_ = std::make_unique<obs::Snapshotter>(buffer, every);
  telemetrySnap_->watchValue(obs::names::kLptOccupancy, [this] {
    return static_cast<double>(lp_.lpt().inUseCount());
  });
}

void Simulator::sampleOccupancy() {
  const std::uint32_t inUse = lp_.lpt().inUseCount();
  peakOccupancy_ = std::max(peakOccupancy_, inUse);
  occupancy_.add(inUse);
  // primitives_ already counts this primitive, so the telemetry epoch
  // clock is the number of primitives fully simulated.
  if (telemetrySnap_ != nullptr) telemetrySnap_->advanceTo(primitives_);
}

void Simulator::LpOps::retain(const EpValue& value) {
  if (value.kind == EpValue::Kind::kEntry) {
    lp.bind(value.id);
  } else if (value.kind == EpValue::Kind::kLarge) {
    lp.largeBind();
  }
}

void Simulator::LpOps::release(const EpValue& value) {
  if (value.kind == EpValue::Kind::kEntry) {
    lp.unbind(value.id);
  } else if (value.kind == EpValue::Kind::kLarge) {
    lp.largeUnbind();
  }
}

Simulator::EpValue Simulator::LpOps::readIn(std::uint32_t n,
                                            std::uint32_t p) {
  return EpValue::list(lp.readList(std::nullopt, std::max(n, 1u), p));
}

void Simulator::LpOps::reread(EpValue& value, std::uint32_t n,
                              std::uint32_t p) {
  // readList dereferences the old binding (a kNoEntry result has already
  // registered the outstanding large reference).
  if (value.kind != EpValue::Kind::kEntry) return;
  value = EpValue::list(lp.readList(value.id, std::max(n, 1u), p));
}

void Simulator::touchCache(const EpValue& value, bool countIt) {
  if (!cache_ || value.kind != EpValue::Kind::kEntry) return;
  const bool hit = cache_->access(lp_.cacheAddress(value.id));
  if (!countIt) return;
  if (hit) {
    ++cacheHits_;
  } else {
    ++cacheMisses_;
  }
}

void Simulator::pushResult(const AccessResult& result) {
  EpValue value;
  if (result.id != kNoEntry) {
    value.kind = EpValue::Kind::kEntry;
    value.id = result.id;
  } else if (!result.isAtom) {
    value.kind = EpValue::Kind::kLarge;
  }
  ep_.disposeValue(value);
}

void Simulator::onPrimitive(const PreprocessedEvent& event) {
  ++primitives_;

  // `read` needs no pre-existing argument.
  if (event.primitive == Primitive::kRead) {
    ep_.disposeValue(EpValue::list(
        lp_.readList(std::nullopt, event.result.n, event.result.p)));
    return;
  }

  const auto operand = ep_.selectOperand(event);
  const EpValue arg = ep_.value(operand.index);
  auto finishTemp = [&] {
    // The chained temporary is consumed by this primitive.
    if (operand.consumedTemp) ep_.popTop();
  };

  switch (event.primitive) {
    case Primitive::kCar:
    case Primitive::kCdr: {
      const bool wantCar = event.primitive == Primitive::kCar;
      AccessResult result;
      if (arg.kind == EpValue::Kind::kLarge) {
        result = lp_.largeAccess(wantCar);
      } else if (lp_.lpt().entry(arg.id).isAtom) {
        // car/cdr of an atom object yields nil — no LPT activity.
        result.id = kNoEntry;
        result.isAtom = true;
      } else {
        touchCache(arg, /*countIt=*/true);
        result = wantCar ? lp_.car(arg.id) : lp_.cdr(arg.id);
      }
      finishTemp();
      pushResult(result);
      break;
    }
    case Primitive::kCons:
    case Primitive::kAppend: {
      // Second operand: another stack value if one exists, else the same.
      AccessResult result;
      if (arg.kind == EpValue::Kind::kLarge) {
        ++lp_.stats().overflowModeOps;
        lp_.largeBind();
        result.id = kNoEntry;
        result.isAtom = false;
      } else {
        const std::optional<std::size_t> other =
            ep_.pickAnyList();
        EntryId tail = arg.id;
        if (other && ep_.value(*other).kind == EpValue::Kind::kEntry) {
          tail = ep_.value(*other).id;
        }
        touchCache(arg, /*countIt=*/false);  // the cell write
        const EntryId id = lp_.cons(arg.id, tail);
        result.id = id;
        result.isAtom = false;
      }
      finishTemp();
      pushResult(result);
      break;
    }
    case Primitive::kRplaca:
    case Primitive::kRplacd: {
      if (arg.kind == EpValue::Kind::kEntry &&
          !lp_.lpt().entry(arg.id).isAtom) {
        const std::optional<std::size_t> other =
            ep_.pickAnyList();
        if (other && ep_.value(*other).kind == EpValue::Kind::kEntry) {
          touchCache(arg, /*countIt=*/false);
          if (event.primitive == Primitive::kRplaca) {
            lp_.rplaca(arg.id, ep_.value(*other).id);
          } else {
            lp_.rplacd(arg.id, ep_.value(*other).id);
          }
        }
      }
      // rplac returns its (modified) first argument; keep the binding as
      // the result value.
      LpOps{lp_}.retain(arg);
      finishTemp();
      ep_.disposeValue(arg);
      break;
    }
    case Primitive::kAtom:
    case Primitive::kNull:
    case Primitive::kEqual:
    case Primitive::kWrite: {
      // Predicates and output touch the argument but produce atoms.
      touchCache(arg, /*countIt=*/false);
      finishTemp();
      ep_.disposeValue(EpValue{});
      break;
    }
    case Primitive::kRead:
      break;  // handled above
  }
}

SimResult simulateTrace(const SimConfig& config,
                        const trace::PreprocessedTrace& trace) {
  Simulator simulator(config, trace);
  return simulator.run();
}

SimResult simulateTrace(const SimConfig& config,
                        const trace::PreprocessedTrace& trace,
                        obs::TelemetryBuffer* telemetry,
                        std::uint64_t every) {
  Simulator simulator(config, trace);
  simulator.attachTelemetry(telemetry, every);
  return simulator.run();
}

}  // namespace small::core
