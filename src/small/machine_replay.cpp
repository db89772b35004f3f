#include "small/machine_replay.hpp"

#include <algorithm>

#include "small/ep_model.hpp"
#include "trace/binary.hpp"

namespace small::core {

using trace::EventKind;
using trace::PreprocessedEvent;
using trace::Primitive;

namespace {

/// Deterministic s-expression of the recorded (n, p) shape: n symbols
/// distributed over p nested sublists. No randomness — the same shape
/// yields the same structure on every backend and every run.
sexpr::NodeRef synthesizeShape(sexpr::Arena& arena, std::uint32_t n,
                               std::uint32_t p) {
  n = std::max(n, 1u);
  sexpr::NodeRef list = sexpr::kNilRef;
  if (p > 0 && n >= 2) {
    const std::uint32_t inner = n / 2;
    sexpr::NodeRef sub = synthesizeShape(arena, inner, p - 1);
    for (std::uint32_t i = n - inner; i-- > 0;) {
      list = arena.cons(arena.symbol(static_cast<sexpr::SymbolId>(i % 7)),
                        list);
    }
    return arena.cons(sub, list);
  }
  for (std::uint32_t i = n; i-- > 0;) {
    list = arena.cons(arena.symbol(static_cast<sexpr::SymbolId>(i % 7)),
                      list);
  }
  return list;
}

// Recorded (n, p) shapes are clamped to this many symbols so one readlist
// cannot swamp the table.
constexpr std::uint32_t kMaxShapeSymbols = 64;

// Once the top-level frame holds this many items, results are bound
// instead of pushed (EpModel::disposeValue). The Simulator uses 512; each
// value is part of its own seeded results.
constexpr std::size_t kTopLevelStackBound = 256;

using Value = SmallMachine::Value;

/// The EpModel adapter: EP references are SmallMachine retain/release.
struct MachineOps {
  using Value = SmallMachine::Value;
  SmallMachine& machine;

  static bool isList(const Value& value) { return value.isObject(); }
  void retain(const Value& value) { machine.retain(value); }
  void release(const Value& value) { machine.release(value); }
  Value readIn(std::uint32_t n, std::uint32_t p) {
    sexpr::Arena arena;
    const std::uint32_t capped = std::min(std::max(n, 1u), kMaxShapeSymbols);
    return machine.readList(arena,
                            synthesizeShape(arena, capped, std::min(p, 4u)));
  }
  void reread(Value& value, std::uint32_t n, std::uint32_t p) {
    if (!value.isObject()) return;
    machine.release(value);
    value = readIn(n, p);
  }
};

// Event-at-a-time replay core: the whole-trace and streaming entry
// points below differ only in how they iterate events into feed().
class Replayer {
 public:
  explicit Replayer(const ReplayConfig& config,
                    const ReplayHook* hook = nullptr)
      : rng_(config.seed),
        machine_(config.machine),
        ep_(MachineOps{machine_}, rng_, EpProbabilities{},
            kTopLevelStackBound) {
    if (hook != nullptr && hook->onMachineReady) {
      hook->onMachineReady(machine_);
    }
    if (hook != nullptr && hook->everyPrimitives > 0 && hook->onPrimitives) {
      hook_ = hook;
    }
  }

  void feed(const PreprocessedEvent& event) {
    switch (event.kind) {
      case EventKind::kFunctionEnter:
        ++functionCalls_;
        ep_.enterFunction(event.argCount);
        break;
      case EventKind::kFunctionExit:
        ep_.exitFunction();
        break;
      case EventKind::kPrimitive:
        onPrimitive(event);
        break;
    }
  }

  ReplayResult finish() {
    // Shutdown: unwind every frame and drain the free queue. Whatever
    // stays in the table is cyclic structure from rplac traffic.
    ep_.unwind();
    machine_.serviceAllHeapFrees();

    ReplayResult result;
    result.backend = machine_.heap().name();
    result.machine = machine_.stats();
    result.heap = machine_.heapStats();
    result.primitives = primitives_;
    result.functionCalls = functionCalls_;
    result.residualEntries = machine_.entriesInUse();
    result.residualHeapCells = machine_.heapCellsLive();
    result.gcStats = machine_.gcStats();
    return result;
  }

 private:
  void onPrimitive(const PreprocessedEvent& event) {
    ++primitives_;
    // The hook fires between events and never draws from rng_, so the
    // replay's own event sequence (and ReplayResult) is unaffected.
    if (hook_ != nullptr && primitives_ % hook_->everyPrimitives == 0) {
      hook_->onPrimitives(primitives_);
    }

    if (event.primitive == Primitive::kRead) {
      ep_.disposeValue(
          MachineOps{machine_}.readIn(event.result.n, event.result.p));
      return;
    }

    const auto operand = ep_.selectOperand(event);
    const Value arg = ep_.value(operand.index);
    auto finishTemp = [&] {
      if (operand.consumedTemp) ep_.popTop();
    };

    switch (event.primitive) {
      case Primitive::kCar:
      case Primitive::kCdr: {
        Value result;
        if (arg.isObject() || arg.kind == Value::Kind::kNil) {
          result = event.primitive == Primitive::kCar ? machine_.car(arg)
                                                      : machine_.cdr(arg);
        }  // car/cdr of a non-nil atom: nil result, no machine activity
        finishTemp();
        ep_.disposeValue(result);
        break;
      }
      case Primitive::kCons:
      case Primitive::kAppend: {
        const std::optional<std::size_t> other = ep_.pickAnyList();
        const Value tail = other ? ep_.value(*other) : arg;
        const Value result = machine_.cons(arg, tail);
        finishTemp();
        ep_.disposeValue(result);
        break;
      }
      case Primitive::kRplaca:
      case Primitive::kRplacd: {
        if (arg.isObject()) {
          const std::optional<std::size_t> other = ep_.pickAnyList();
          if (other) {
            if (event.primitive == Primitive::kRplaca) {
              machine_.rplaca(arg, ep_.value(*other));
            } else {
              machine_.rplacd(arg, ep_.value(*other));
            }
          }
        }
        // rplac returns its (modified) first argument.
        machine_.retain(arg);
        finishTemp();
        ep_.disposeValue(arg);
        break;
      }
      case Primitive::kAtom:
      case Primitive::kNull:
      case Primitive::kEqual:
      case Primitive::kWrite: {
        finishTemp();
        ep_.disposeValue(Value{});  // predicates produce atoms
        break;
      }
      case Primitive::kRead:
        break;  // handled above
    }
  }

  support::Rng rng_;
  SmallMachine machine_;
  EpModel<MachineOps> ep_;
  std::uint64_t primitives_ = 0;
  std::uint64_t functionCalls_ = 0;
  const ReplayHook* hook_ = nullptr;
};

}  // namespace

namespace {

ReplayResult replayTraceImpl(const ReplayConfig& config,
                             const trace::PreprocessedTrace& trace,
                             const ReplayHook* hook) {
  Replayer replayer(config, hook);
  for (const PreprocessedEvent& event : trace.events) {
    replayer.feed(event);
  }
  return replayer.finish();
}

ReplayResult replayMappedTraceImpl(const ReplayConfig& config,
                                   const trace::MappedTrace& mapped,
                                   std::size_t batchSize,
                                   const ReplayHook* hook) {
  Replayer replayer(config, hook);
  trace::Preprocessor preprocessor;
  trace::BinaryDecoder decoder(mapped);
  // Two caller-owned buffers, reused every batch: raw events decoded from
  // the mapping, and their preprocessed forms. Steady state allocates
  // nothing, independent of trace length.
  std::vector<trace::Event> raw(std::max<std::size_t>(batchSize, 1));
  std::vector<PreprocessedEvent> pre(raw.size());
  for (std::size_t k = decoder.decodeBatch(raw); k != 0;
       k = decoder.decodeBatch(raw)) {
    for (std::size_t i = 0; i < k; ++i) {
      preprocessor.process(raw[i], pre[i]);
      replayer.feed(pre[i]);
    }
  }
  return replayer.finish();
}

}  // namespace

ReplayResult replayTrace(const ReplayConfig& config,
                         const trace::PreprocessedTrace& trace) {
  return replayTraceImpl(config, trace, nullptr);
}

ReplayResult replayTrace(const ReplayConfig& config,
                         const trace::PreprocessedTrace& trace,
                         const ReplayHook& hook) {
  return replayTraceImpl(config, trace, &hook);
}

ReplayResult replayMappedTrace(const ReplayConfig& config,
                               const trace::MappedTrace& mapped,
                               std::size_t batchSize) {
  return replayMappedTraceImpl(config, mapped, batchSize, nullptr);
}

ReplayResult replayMappedTrace(const ReplayConfig& config,
                               const trace::MappedTrace& mapped,
                               std::size_t batchSize,
                               const ReplayHook& hook) {
  return replayMappedTraceImpl(config, mapped, batchSize, &hook);
}

}  // namespace small::core
