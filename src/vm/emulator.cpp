#include "vm/emulator.hpp"

#include <limits>

#include "support/error.hpp"

namespace small::vm {

using sexpr::SymbolId;

MachineStore::Value MachineStore::constant(const Program& program,
                                           std::size_t index) {
  if (constants_.size() < program.constants.size()) {
    constants_.resize(program.constants.size());
  }
  if (!constants_[index]) {
    constants_[index] = machine_.readList(arena_, program.constants[index]);
  }
  return *constants_[index];
}

bool MachineStore::equal(Value a, Value b) const {
  if (a.isObject() || b.isObject()) {
    // Structure: compare through writelist.
    return arena_.equal(machine_.writeList(arena_, a),
                        machine_.writeList(arena_, b));
  }
  return a.kind == b.kind &&
         (a.kind == Value::Kind::kNil || a.payload == b.payload);
}

void MachineStore::shutdown() {
  for (const std::optional<Value>& value : constants_) {
    if (value) machine_.release(*value);
  }
  constants_.clear();
  machine_.serviceAllHeapFrees();
}

template <class Store>
void BasicEmulator<Store>::shutdown() {
  for (const Value value : values_) store_.release(value);
  values_.clear();
  for (const Binding& b : bindings_) store_.release(b.value);
  bindings_.clear();
  for (const Binding& b : globals_) store_.release(b.value);
  globals_.clear();
  store_.shutdown();
}

template <class Store>
void BasicEmulator<Store>::error(const std::string& message) const {
  throw support::EvalError("vm emulator: " + message);
}

template <class Store>
auto BasicEmulator<Store>::pop() -> Value {
  if (values_.empty()) error("value stack underflow");
  const Value value = values_.back();
  values_.pop_back();
  return value;
}

template <class Store>
void BasicEmulator<Store>::pushBorrowed(Value value) {
  store_.retain(value);
  values_.push_back(value);
}

template <class Store>
bool BasicEmulator<Store>::popNil() {
  const Value value = pop();
  const bool isNil = store_.isNil(value);
  store_.release(value);
  return isNil;
}

template <class Store>
bool BasicEmulator<Store>::popEqual() {
  const Value b = pop();
  const Value a = pop();
  const bool equal = store_.equal(a, b);
  store_.release(a);
  store_.release(b);
  return equal;
}

template <class Store>
std::int64_t BasicEmulator<Store>::popInt(Opcode op) {
  const Value value = pop();
  if (!store_.isInteger(value)) {
    store_.release(value);
    error(std::string(opcodeName(op)) + ": expected an integer");
  }
  return store_.integerValue(value);
}

template <class Store>
auto BasicEmulator<Store>::binding(SymbolId name) -> Value* {
  // Dynamic (deep) binding: the most recent binding wins.
  for (std::size_t i = bindings_.size(); i-- > 0;) {
    if (bindings_[i].name == name) return &bindings_[i].value;
  }
  for (Binding& global : globals_) {
    if (global.name == name) return &global.value;
  }
  return nullptr;
}

template <class Store>
void BasicEmulator<Store>::run(const Program& program) {
  std::uint32_t pc = program.start;
  frames_.push_back(Frame{});  // top-level frame

  while (true) {
    if (++instructions_ > options_.maxSteps) error("step budget exceeded");
    if (pc >= program.code.size()) error("pc out of range");
    const Instruction insn = program.code[pc];
    ++pc;
    switch (insn.op) {
      case Opcode::kHalt:
        return;
      case Opcode::kPushSym: {
        const auto index = static_cast<std::size_t>(insn.operand);
        if (insn.operand < 0 || index >= program.constants.size()) {
          error("PUSHSYM: bad constant index");
        }
        pushBorrowed(store_.constant(program, index));
        break;
      }
      case Opcode::kPushStk: {
        // Argument k (1-based) of the current frame. The prologue's BINDN
        // sequence moved the arguments into the binding stack in reverse
        // order (last argument bound first), so argument k sits at binding
        // slot bindingBase + (argCount - k).
        const Frame& frame = frames_.back();
        const auto k = static_cast<std::size_t>(insn.operand);
        if (k == 0 || k > frame.argCount) error("PUSHSTK: bad arg index");
        const std::size_t slot = frame.bindingBase + (frame.argCount - k);
        if (slot >= bindings_.size()) error("PUSHSTK: missing binding");
        pushBorrowed(bindings_[slot].value);
        break;
      }
      case Opcode::kPushVar: {
        const Value* value = binding(insn.sym);
        pushBorrowed(value ? *value : store_.nil());
        break;
      }
      case Opcode::kBindN:
        bindings_.push_back({insn.sym, pop()});  // ownership moves
        break;
      case Opcode::kSetq: {
        if (values_.empty()) error("SETQ: empty stack");
        const Value value = values_.back();  // stays on the stack
        store_.retain(value);
        if (Value* slot = binding(insn.sym)) {
          store_.release(*slot);
          *slot = value;
        } else {
          globals_.push_back({insn.sym, value});
        }
        break;
      }
      case Opcode::kPop:
        store_.release(pop());
        break;

      case Opcode::kFCall: {
        const Program::Function* callee =
            program.findFunction(symbols_.name(insn.sym));
        if (!callee) error("FCALL to undefined function");
        if (callee->argCount != insn.operand) {
          error("FCALL: wrong number of arguments for " + callee->name);
        }
        if (values_.size() < callee->argCount) {
          error("FCALL: missing arguments for " + callee->name);
        }
        ++functionCalls_;
        frames_.push_back(
            {pc, values_.size(), bindings_.size(), callee->argCount});
        pc = callee->entry;
        break;
      }
      case Opcode::kFRetn: {
        if (frames_.size() <= 1) return;  // return from top level = halt
        const Value result = pop();
        const Frame frame = frames_.back();
        frames_.pop_back();
        // Drop the callee's bindings and its arguments from the stacks.
        while (bindings_.size() > frame.bindingBase) {
          store_.release(bindings_.back().value);
          bindings_.pop_back();
        }
        while (values_.size() > frame.valueBase - frame.argCount) {
          store_.release(pop());
        }
        push(result);
        pc = frame.returnPc;
        break;
      }
      case Opcode::kJump:
        pc = static_cast<std::uint32_t>(insn.operand);
        break;
      case Opcode::kBranchNil:
        if (popNil()) pc = static_cast<std::uint32_t>(insn.operand);
        break;
      case Opcode::kNEqualP:
        if (!popEqual()) pc = static_cast<std::uint32_t>(insn.operand);
        break;

      case Opcode::kNullP:
      case Opcode::kNotOp:
        push(boolean(popNil()));
        break;
      case Opcode::kAtomP: {
        const Value value = pop();
        const bool isAtom = store_.isAtom(value);
        store_.release(value);
        push(boolean(isAtom));
        break;
      }
      case Opcode::kEqualP:
        push(boolean(popEqual()));
        break;
      case Opcode::kGreaterP:
      case Opcode::kLessP: {
        const std::int64_t b = popInt(insn.op);
        const std::int64_t a = popInt(insn.op);
        push(boolean(insn.op == Opcode::kGreaterP ? a > b : a < b));
        break;
      }

      case Opcode::kAddOp:
      case Opcode::kSubOp:
      case Opcode::kMulOp:
      case Opcode::kDivOp: {
        const std::int64_t b = popInt(insn.op);
        const std::int64_t a = popInt(insn.op);
        std::int64_t r = 0;
        bool overflow = false;
        if (insn.op == Opcode::kAddOp) {
          overflow = __builtin_add_overflow(a, b, &r);
        } else if (insn.op == Opcode::kSubOp) {
          overflow = __builtin_sub_overflow(a, b, &r);
        } else if (insn.op == Opcode::kMulOp) {
          overflow = __builtin_mul_overflow(a, b, &r);
        } else if (b == 0) {
          error("DIVOP: division by zero");
        } else {
          overflow = b == -1 && a == std::numeric_limits<std::int64_t>::min();
          if (!overflow) r = a / b;
        }
        if (overflow) {
          error(std::string(opcodeName(insn.op)) + ": integer overflow");
        }
        push(store_.integer(r));
        break;
      }

      case Opcode::kCarOp:
      case Opcode::kCdrOp: {
        ++listOps_;
        const Value list = pop();
        push(insn.op == Opcode::kCarOp ? store_.car(list) : store_.cdr(list));
        store_.release(list);
        break;
      }
      case Opcode::kConsOp: {
        ++listOps_;
        const Value tail = pop();
        const Value head = pop();
        push(store_.cons(head, tail));
        store_.release(head);
        store_.release(tail);
        break;
      }
      case Opcode::kRplacaOp:
      case Opcode::kRplacdOp: {
        ++listOps_;
        const Value value = pop();
        const Value target = pop();
        if (insn.op == Opcode::kRplacaOp) {
          store_.rplaca(target, value);
        } else {
          store_.rplacd(target, value);
        }
        store_.release(value);
        push(target);  // keeps its reference, returned as the result
        break;
      }

      case Opcode::kRdList:
        ++listOps_;
        if (input_.empty()) {
          push(store_.nil());
        } else {
          push(store_.read(input_.front()));
          input_.pop_front();
        }
        break;
      case Opcode::kWrList: {
        ++listOps_;
        const Value value = pop();
        output_.push_back(store_.print(value));
        store_.release(value);
        break;
      }
    }
  }
}

template class BasicEmulator<ArenaStore>;
template class BasicEmulator<MachineStore>;

}  // namespace small::vm
