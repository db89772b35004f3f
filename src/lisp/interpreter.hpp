// The Lisp interpreter.
//
// A dynamically scoped Lisp at the level of the thesis' compiler subset
// (§4.3.4): the list primitives (car, cdr, cons, rplaca, rplacd), cond and
// prog (with go and return), predicates, integer arithmetic, logic, setq,
// read/write, and def — plus lambda, let, progn and while for comfortable
// workload authoring. Exprs only (fixed arity, evaluated arguments), as in
// the thesis' simple Lisp.
//
// The interpreter drives the trace hook exactly where the thesis put it: at
// every call of a list access or modify primitive, and at entry/exit of
// every user-defined function.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lisp/env.hpp"
#include "lisp/tracer.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"

namespace small::lisp {

class Interpreter {
 public:
  struct Options {
    std::uint64_t maxSteps = 100'000'000;  ///< eval-step budget per run()
  };

  Interpreter(sexpr::Arena& arena, sexpr::SymbolTable& symbols)
      : Interpreter(arena, symbols, Options{}) {}
  Interpreter(sexpr::Arena& arena, sexpr::SymbolTable& symbols,
              Options options);
  ~Interpreter();  // out of line: Syms is incomplete here

  /// Attach/detach the trace hook (may be null).
  void setTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Read every form in `source`; `def` forms register functions, all
  /// other forms evaluate in order. Returns the value of the last form.
  NodeRef run(std::string_view source);

  /// Evaluate a single already-read form.
  NodeRef eval(NodeRef form);

  /// Queue s-expressions for the `(read)` primitive to consume.
  void provideInput(NodeRef value) { input_.push_back(value); }
  void provideInputText(std::string_view text);

  /// Values emitted by `(write x)` / `(print x)`.
  const std::vector<NodeRef>& output() const { return output_; }
  void clearOutput() { output_.clear(); }

  sexpr::Arena& arena() { return arena_; }
  sexpr::SymbolTable& symbols() { return symbols_; }

  std::uint64_t stepsUsed() const { return steps_; }

  /// Number of user-defined functions registered.
  std::size_t functionCount() const { return functions_.size(); }

 private:
  struct Function {
    std::string name;
    std::vector<SymbolId> params;
    std::vector<NodeRef> body;
  };

  // Non-local exits inside prog.
  struct GoSignal {
    SymbolId label;
  };
  struct ReturnSignal {
    NodeRef value;
  };

  NodeRef evalForm(NodeRef form);
  NodeRef evalCall(SymbolId head, NodeRef argForms);
  NodeRef applyFunction(const Function& function,
                        const std::vector<NodeRef>& args);
  NodeRef applyLambda(NodeRef lambda, const std::vector<NodeRef>& args);
  std::vector<NodeRef> evalArgs(NodeRef argForms);

  NodeRef evalCond(NodeRef clauses);
  NodeRef evalProg(NodeRef form);
  NodeRef evalSetq(NodeRef rest);
  NodeRef evalDef(NodeRef rest);
  NodeRef evalLet(NodeRef rest);
  NodeRef evalWhile(NodeRef rest);

  NodeRef applyBuiltin(SymbolId head, const std::vector<NodeRef>& args);

  NodeRef boolean(bool value);
  std::int64_t requireInt(NodeRef value, const char* what) const;
  void checkArity(const std::vector<NodeRef>& args, std::size_t arity,
                  const char* what) const;
  void countStep();

  [[noreturn]] void error(const std::string& message) const;

  sexpr::Arena& arena_;
  sexpr::SymbolTable& symbols_;
  Options options_;
  DeepBindingEnv env_;
  Tracer* tracer_ = nullptr;

  std::unordered_map<SymbolId, Function> functions_;
  std::deque<NodeRef> input_;
  std::vector<NodeRef> output_;
  std::uint64_t steps_ = 0;

  // Interned special-form and builtin symbols, resolved once.
  struct Syms;
  std::unique_ptr<Syms> syms_;
};

}  // namespace small::lisp
