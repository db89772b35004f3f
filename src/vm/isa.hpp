// The SMALL stack-machine instruction set (§4.3.4, Figs 4.14/4.15).
//
// "Code was generated for a stack machine with the list manipulating
//  functionality of SMALL. The instruction set included instructions for
//  function call and return, adding a new binding to the environment,
//  looking up the current value bound to a name and pushing it on top of
//  the stack, pushing immediate values onto the stack, input and output,
//  list manipulating operations, arithmetic and logical operations,
//  unconditional branching, and conditional branching based on predicate
//  testing of the current value on top of the stack."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sexpr/arena.hpp"

namespace small::vm {

enum class Opcode : std::uint8_t {
  // Environment / stack
  kBindN,     ///< BINDN name: pop TOS, bind it to `sym` in current frame
  kPushStk,   ///< PUSHSTK k: push value of argument k (1-based) of frame
  kPushVar,   ///< push current binding of `sym` (locals / non-locals)
  kPushSym,   ///< PUSHSYM: push constant (constant-pool index in operand)
  kSetq,      ///< SETQ: assign TOS (kept on stack) to `sym`
  kPop,       ///< discard TOS

  // Control
  kFCall,     ///< FCALL f: call the function named `sym`
  kFRetn,     ///< FRETN: return with TOS as the value
  kJump,      ///< unconditional branch to operand
  kBranchNil, ///< pop TOS; branch to operand when it is nil

  // Predicates (pop operands, push t/nil)
  kNullP,
  kAtomP,
  kEqualP,    ///< pops two
  kGreaterP,  ///< pops two
  kLessP,

  // Branching comparison used by the thesis' factorial listing
  kNEqualP,   ///< NEQUALP label: pop two; branch when unequal

  // Arithmetic (pop two, push result; TOS is the right operand)
  kAddOp,
  kSubOp,
  kMulOp,
  kDivOp,

  // Logic
  kNotOp,

  // Lists
  kCarOp,
  kCdrOp,
  kConsOp,    ///< pops (tail, head) pushes cons
  kRplacaOp,  ///< pops (value, target) pushes target
  kRplacdOp,

  // I/O
  kRdList,    ///< RDLIST: read one s-expression, push it
  kWrList,    ///< WRLIST: pop TOS and write it

  kHalt,
};

/// Assembly mnemonic ("BINDN", "FCALL", ...), as printed by `disassemble`
/// and in the emulator's error messages.
const char* opcodeName(Opcode op);

struct Instruction {
  Opcode op = Opcode::kHalt;
  std::int32_t operand = 0;        ///< branch target / arg index / pool index
  sexpr::SymbolId sym = 0;         ///< name operand where applicable
};

/// A compiled program: flat code, a constant pool, and function metadata.
struct Program {
  struct Function {
    std::string name;
    std::uint32_t entry = 0;  ///< code index
    std::uint8_t argCount = 0;
  };

  std::vector<Instruction> code;
  std::vector<sexpr::NodeRef> constants;
  std::vector<Function> functions;
  std::uint32_t start = 0;  ///< entry point of the top-level form

  const Function* findFunction(std::string_view name) const;
};

/// Symbolic disassembly for the compiler-demo example (Fig 4.14 style).
std::string disassemble(const Program& program, const sexpr::Arena& arena,
                        const sexpr::SymbolTable& symbols);

}  // namespace small::vm
