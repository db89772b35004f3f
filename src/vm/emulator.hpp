// The SMALL stack-machine emulator (§4.3.4).
//
// "We emulated the code produced by this compiler to test its correctness.
//  The emulator operated by tracing the state of three key SMALL
//  structures: the stack (control and environment), the LPT and the heap."
//
// The dispatch loop is written once, in `BasicEmulator`, over a value
// store (the way core::EpModel runs over its Ops). Two stores exist:
//   - ArenaStore: values are arena NodeRefs and the list instructions are
//     plain s-expression operations (`Emulator`);
//   - MachineStore: values are SmallMachine::Values, so every car/cdr goes
//     through the LPT (splitting heap objects on demand), every cons is
//     endo-structure, and the machine's statistics expose the table and
//     heap activity the compiled program caused (`SmallEmulator`).
//
// One ownership rule holds on both: a popped value is pushed, stored or
// released, and a borrowed one (constant, argument, variable) is retained
// before it is pushed. On the arena store retain and release do nothing.
//
// WRLIST records printed text at write time (real I/O semantics), so a
// later destructive update does not change what was written.
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "sexpr/arena.hpp"
#include "sexpr/printer.hpp"
#include "small/machine.hpp"
#include "vm/isa.hpp"

namespace small::vm {

/// Values are arena nodes; the list instructions act on the arena.
class ArenaStore {
 public:
  using Value = sexpr::NodeRef;
  struct Options {};

  ArenaStore(sexpr::Arena& arena, const sexpr::SymbolTable& symbols,
             const Options&)
      : arena_(arena), symbols_(symbols) {}

  Value constant(const Program& program, std::size_t index) {
    return program.constants[index];
  }
  void retain(Value) {}
  void release(Value) {}

  bool isNil(Value v) const { return arena_.isNil(v); }
  bool isAtom(Value v) const { return arena_.isAtom(v); }
  bool isInteger(Value v) const {
    return arena_.kind(v) == sexpr::NodeKind::kInteger;
  }
  std::int64_t integerValue(Value v) const { return arena_.integerValue(v); }
  Value nil() const { return sexpr::kNilRef; }
  Value t() { return arena_.symbol(sexpr::SymbolTable::kT); }
  Value integer(std::int64_t v) { return arena_.integer(v); }
  bool equal(Value a, Value b) const { return arena_.equal(a, b); }

  Value car(Value list) { return arena_.car(list); }
  Value cdr(Value list) { return arena_.cdr(list); }
  Value cons(Value head, Value tail) { return arena_.cons(head, tail); }
  void rplaca(Value list, Value v) { arena_.setCar(list, v); }
  void rplacd(Value list, Value v) { arena_.setCdr(list, v); }

  Value read(sexpr::NodeRef node) { return node; }
  std::string print(Value v) const {
    return sexpr::print(arena_, symbols_, v);
  }
  void shutdown() {}

 private:
  sexpr::Arena& arena_;
  const sexpr::SymbolTable& symbols_;
};

/// Values live on a functional SMALL machine. Every value the store hands
/// out carries its own EP reference; the operands of car/cdr/cons keep
/// theirs.
class MachineStore {
 public:
  using Value = core::SmallMachine::Value;
  struct Options {
    core::SmallMachine::Config machine{};
  };

  MachineStore(sexpr::Arena& arena, const sexpr::SymbolTable& symbols,
               const Options& options)
      : arena_(arena), symbols_(symbols), machine_(options.machine) {}

  /// Borrowed: each quoted constant is read in once and cached by pool
  /// index, so repeated pushes share structure, as on the arena store.
  Value constant(const Program& program, std::size_t index);
  void retain(Value v) { machine_.retain(v); }
  void release(Value v) { machine_.release(v); }

  bool isNil(Value v) const { return v.kind == Value::Kind::kNil; }
  bool isAtom(Value v) const { return !v.isObject(); }
  bool isInteger(Value v) const { return v.kind == Value::Kind::kInteger; }
  std::int64_t integerValue(Value v) const {
    return static_cast<std::int64_t>(v.payload);
  }
  Value nil() const { return Value::nil(); }
  Value t() const { return Value::symbol(sexpr::SymbolTable::kT); }
  Value integer(std::int64_t v) const { return Value::integer(v); }
  bool equal(Value a, Value b) const;

  Value car(Value list) { return machine_.car(list); }
  Value cdr(Value list) { return machine_.cdr(list); }
  Value cons(Value head, Value tail) { return machine_.cons(head, tail); }
  void rplaca(Value list, Value v) { machine_.rplaca(list, v); }
  void rplacd(Value list, Value v) { machine_.rplacd(list, v); }

  Value read(sexpr::NodeRef node) { return machine_.readList(arena_, node); }
  std::string print(Value v) const {
    return sexpr::print(arena_, symbols_, machine_.writeList(arena_, v));
  }
  /// Release the cached constants and drain the heap free queue.
  void shutdown();

  const core::SmallMachine& machine() const { return machine_; }

 private:
  sexpr::Arena& arena_;
  const sexpr::SymbolTable& symbols_;
  core::SmallMachine machine_;
  std::vector<std::optional<Value>> constants_;  // each owns a reference
};

template <class Store>
class BasicEmulator {
 public:
  using Value = typename Store::Value;
  struct Options : Store::Options {
    std::uint64_t maxSteps = 50'000'000;
  };

  BasicEmulator(sexpr::Arena& arena, sexpr::SymbolTable& symbols)
      : BasicEmulator(arena, symbols, Options{}) {}
  BasicEmulator(sexpr::Arena& arena, sexpr::SymbolTable& symbols,
                Options options)
      : symbols_(symbols), options_(options), store_(arena, symbols, options) {}
  ~BasicEmulator() { shutdown(); }

  BasicEmulator(const BasicEmulator&) = delete;
  BasicEmulator& operator=(const BasicEmulator&) = delete;

  /// Run the program from its top-level entry until HALT.
  void run(const Program& program);

  void provideInput(sexpr::NodeRef value) { input_.push_back(value); }

  /// Text written by WRLIST, printed at write time.
  const std::vector<std::string>& output() const { return output_; }

  std::uint64_t instructionsExecuted() const { return instructions_; }
  std::uint64_t listOps() const { return listOps_; }
  std::uint64_t functionCalls() const { return functionCalls_; }

  const core::SmallMachine& machine() const
    requires std::same_as<Store, MachineStore>
  {
    return store_.machine();
  }
  /// Heap-collection counters when Options::machine.gcPolicy selects a
  /// collector (all zero under the default refcount policy).
  const gc::GcStats& gcStats() const
    requires std::same_as<Store, MachineStore>
  {
    return store_.machine().gcStats();
  }

  /// Release every reference still held (stack, bindings, globals,
  /// constants) and shut the store down. Called by the destructor;
  /// callable earlier so tests can assert the machine empties out.
  void shutdown();

 private:
  struct Binding {
    sexpr::SymbolId name;
    Value value;  // owns one reference
  };
  struct Frame {
    std::uint32_t returnPc = 0;
    std::size_t valueBase = 0;    ///< value-stack height at entry (args below)
    std::size_t bindingBase = 0;  ///< binding-stack height at entry
    std::uint8_t argCount = 0;
  };

  /// Pop with ownership transfer: the caller must push, store, or
  /// release the returned value.
  Value pop();
  void push(Value value) { values_.push_back(value); }  ///< takes ownership
  void pushBorrowed(Value value);  ///< retains, then pushes
  /// Pop one value and release it; returns whether it was nil.
  bool popNil();
  /// Pop two values and release them; returns whether they were equal.
  bool popEqual();
  std::int64_t popInt(Opcode op);
  Value boolean(bool value) { return value ? store_.t() : store_.nil(); }
  /// The innermost binding of `name`, then its global; null if unbound.
  Value* binding(sexpr::SymbolId name);

  [[noreturn]] void error(const std::string& message) const;

  sexpr::SymbolTable& symbols_;
  Options options_;
  Store store_;

  std::vector<Value> values_;
  std::vector<Binding> bindings_;
  std::vector<Frame> frames_;
  std::vector<Binding> globals_;

  std::deque<sexpr::NodeRef> input_;
  std::vector<std::string> output_;

  std::uint64_t instructions_ = 0;
  std::uint64_t listOps_ = 0;
  std::uint64_t functionCalls_ = 0;
};

/// The compiled code on plain s-expressions.
using Emulator = BasicEmulator<ArenaStore>;
/// The compiled code on the functional SMALL machine.
using SmallEmulator = BasicEmulator<MachineStore>;

}  // namespace small::vm
