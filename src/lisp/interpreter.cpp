#include "lisp/interpreter.hpp"

#include <algorithm>
#include <array>

#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "support/error.hpp"

namespace small::lisp {

using sexpr::NodeKind;
using sexpr::NodeRef;
using support::EvalError;
using trace::Primitive;

/// Interned ids for special forms and builtins.
struct Interpreter::Syms {
  SymbolId quote, cond, prog, go, ret, setq, def, defun, lambda, let, progn,
      whileSym, andSym, orSym, ifSym;
  SymbolId car, cdr, cons, rplaca, rplacd, atom, null, equal, append, read,
      write, print, list;
  SymbolId eq, notSym, plus, minus, times, quotient, remainder, eqNum, lt, gt,
      le, ge, zerop, numberp, listp, caar, cadr, cddr, cdar;
  SymbolId t;

  explicit Syms(sexpr::SymbolTable& symbols) {
    quote = symbols.intern("quote");
    cond = symbols.intern("cond");
    prog = symbols.intern("prog");
    go = symbols.intern("go");
    ret = symbols.intern("return");
    setq = symbols.intern("setq");
    def = symbols.intern("def");
    defun = symbols.intern("defun");
    lambda = symbols.intern("lambda");
    let = symbols.intern("let");
    progn = symbols.intern("progn");
    whileSym = symbols.intern("while");
    andSym = symbols.intern("and");
    orSym = symbols.intern("or");
    ifSym = symbols.intern("if");

    car = symbols.intern("car");
    cdr = symbols.intern("cdr");
    cons = symbols.intern("cons");
    rplaca = symbols.intern("rplaca");
    rplacd = symbols.intern("rplacd");
    atom = symbols.intern("atom");
    null = symbols.intern("null");
    equal = symbols.intern("equal");
    append = symbols.intern("append");
    read = symbols.intern("read");
    write = symbols.intern("write");
    print = symbols.intern("print");
    list = symbols.intern("list");

    eq = symbols.intern("eq");
    notSym = symbols.intern("not");
    plus = symbols.intern("+");
    minus = symbols.intern("-");
    times = symbols.intern("*");
    quotient = symbols.intern("/");
    remainder = symbols.intern("rem");
    eqNum = symbols.intern("=");
    lt = symbols.intern("<");
    gt = symbols.intern(">");
    le = symbols.intern("<=");
    ge = symbols.intern(">=");
    zerop = symbols.intern("zerop");
    numberp = symbols.intern("numberp");
    listp = symbols.intern("listp");
    caar = symbols.intern("caar");
    cadr = symbols.intern("cadr");
    cddr = symbols.intern("cddr");
    cdar = symbols.intern("cdar");

    t = sexpr::SymbolTable::kT;
  }
};

Interpreter::Interpreter(sexpr::Arena& arena, sexpr::SymbolTable& symbols,
                         Options options)
    : arena_(arena),
      symbols_(symbols),
      options_(options),
      syms_(std::make_unique<Syms>(symbols)) {}

Interpreter::~Interpreter() = default;

void Interpreter::error(const std::string& message) const {
  throw EvalError("lisp: " + message);
}

void Interpreter::countStep() {
  if (++steps_ > options_.maxSteps) {
    error("evaluation step budget exceeded");
  }
}

NodeRef Interpreter::boolean(bool value) {
  return value ? arena_.symbol(syms_->t) : sexpr::kNilRef;
}

std::int64_t Interpreter::requireInt(NodeRef value, const char* what) const {
  if (arena_.kind(value) != NodeKind::kInteger) {
    throw EvalError(std::string("lisp: ") + what + " expects integers");
  }
  return arena_.integerValue(value);
}

void Interpreter::checkArity(const std::vector<NodeRef>& args,
                             std::size_t arity, const char* what) const {
  if (args.size() != arity) {
    throw EvalError(std::string("lisp: ") + what + " expects " +
                    std::to_string(arity) + " argument(s), got " +
                    std::to_string(args.size()));
  }
}

void Interpreter::provideInputText(std::string_view text) {
  sexpr::Reader reader(arena_, symbols_);
  for (const NodeRef form : reader.readAll(text)) {
    input_.push_back(form);
  }
}

NodeRef Interpreter::run(std::string_view source) {
  sexpr::Reader reader(arena_, symbols_);
  NodeRef last = sexpr::kNilRef;
  for (const NodeRef form : reader.readAll(source)) {
    last = eval(form);
  }
  return last;
}

NodeRef Interpreter::eval(NodeRef form) { return evalForm(form); }

NodeRef Interpreter::evalForm(NodeRef form) {
  countStep();
  switch (arena_.kind(form)) {
    case NodeKind::kNil:
    case NodeKind::kInteger:
      return form;
    case NodeKind::kSymbol: {
      const SymbolId name = arena_.symbolId(form);
      if (name == syms_->t) return form;
      const std::optional<NodeRef> value = env_.lookup(name);
      if (!value) {
        error("unbound variable '" + symbols_.name(name) + "'");
      }
      return *value;
    }
    case NodeKind::kCons: {
      const NodeRef head = arena_.car(form);
      if (arena_.kind(head) != NodeKind::kSymbol) {
        // ((lambda (args) body) actual...) — direct lambda application.
        if (arena_.kind(head) == NodeKind::kCons &&
            arena_.kind(arena_.car(head)) == NodeKind::kSymbol &&
            arena_.symbolId(arena_.car(head)) == syms_->lambda) {
          return applyLambda(head, evalArgs(arena_.cdr(form)));
        }
        error("cannot apply non-symbol head");
      }
      return evalCall(arena_.symbolId(head), arena_.cdr(form));
    }
  }
  error("unreachable form kind");
}

std::vector<NodeRef> Interpreter::evalArgs(NodeRef argForms) {
  std::vector<NodeRef> args;
  NodeRef cursor = argForms;
  while (!arena_.isNil(cursor)) {
    args.push_back(evalForm(arena_.car(cursor)));
    cursor = arena_.cdr(cursor);
  }
  return args;
}

NodeRef Interpreter::evalCall(SymbolId head, NodeRef argForms) {
  const Syms& s = *syms_;
  // --- special forms ---
  if (head == s.quote) return arena_.car(argForms);
  if (head == s.cond) return evalCond(argForms);
  if (head == s.prog) return evalProg(argForms);
  if (head == s.setq) return evalSetq(argForms);
  if (head == s.def || head == s.defun) return evalDef(argForms);
  if (head == s.let) return evalLet(argForms);
  if (head == s.whileSym) return evalWhile(argForms);
  if (head == s.lambda) {
    // A lambda expression evaluates to itself (a funarg list).
    return arena_.cons(arena_.symbol(s.lambda), argForms);
  }
  if (head == s.progn) {
    NodeRef value = sexpr::kNilRef;
    for (NodeRef c = argForms; !arena_.isNil(c); c = arena_.cdr(c)) {
      value = evalForm(arena_.car(c));
    }
    return value;
  }
  if (head == s.ifSym) {
    const NodeRef test = evalForm(arena_.car(argForms));
    const NodeRef rest = arena_.cdr(argForms);
    if (!arena_.isNil(test)) return evalForm(arena_.car(rest));
    const NodeRef elseForms = arena_.cdr(rest);
    if (arena_.isNil(elseForms)) return sexpr::kNilRef;
    return evalForm(arena_.car(elseForms));
  }
  if (head == s.andSym) {
    NodeRef value = arena_.symbol(s.t);
    for (NodeRef c = argForms; !arena_.isNil(c); c = arena_.cdr(c)) {
      value = evalForm(arena_.car(c));
      if (arena_.isNil(value)) return sexpr::kNilRef;
    }
    return value;
  }
  if (head == s.orSym) {
    for (NodeRef c = argForms; !arena_.isNil(c); c = arena_.cdr(c)) {
      const NodeRef value = evalForm(arena_.car(c));
      if (!arena_.isNil(value)) return value;
    }
    return sexpr::kNilRef;
  }
  if (head == s.go) {
    throw GoSignal{arena_.symbolId(arena_.car(argForms))};
  }
  if (head == s.ret) {
    NodeRef value = sexpr::kNilRef;
    if (!arena_.isNil(argForms)) value = evalForm(arena_.car(argForms));
    throw ReturnSignal{value};
  }

  // --- user-defined function? ---
  const auto fn = functions_.find(head);
  if (fn != functions_.end()) {
    return applyFunction(fn->second, evalArgs(argForms));
  }

  // --- a variable bound to a lambda? (funargs) ---
  if (const std::optional<NodeRef> bound = env_.lookup(head)) {
    const NodeRef value = *bound;
    if (arena_.kind(value) == NodeKind::kCons &&
        arena_.kind(arena_.car(value)) == NodeKind::kSymbol &&
        arena_.symbolId(arena_.car(value)) == s.lambda) {
      return applyLambda(value, evalArgs(argForms));
    }
  }

  // --- builtin ---
  return applyBuiltin(head, evalArgs(argForms));
}

NodeRef Interpreter::evalCond(NodeRef clauses) {
  for (NodeRef c = clauses; !arena_.isNil(c); c = arena_.cdr(c)) {
    const NodeRef clause = arena_.car(c);
    const NodeRef test = evalForm(arena_.car(clause));
    if (arena_.isNil(test)) continue;
    NodeRef value = test;
    for (NodeRef body = arena_.cdr(clause); !arena_.isNil(body);
         body = arena_.cdr(body)) {
      value = evalForm(arena_.car(body));
    }
    return value;
  }
  return sexpr::kNilRef;
}

NodeRef Interpreter::evalProg(NodeRef form) {
  const Environment::Mark mark = env_.mark();
  // Bind locals to nil.
  for (NodeRef c = arena_.car(form); !arena_.isNil(c); c = arena_.cdr(c)) {
    env_.bind(arena_.symbolId(arena_.car(c)), sexpr::kNilRef);
  }
  // Collect body forms and label positions.
  std::vector<NodeRef> body;
  std::vector<std::pair<SymbolId, std::size_t>> labels;
  for (NodeRef c = arena_.cdr(form); !arena_.isNil(c); c = arena_.cdr(c)) {
    const NodeRef item = arena_.car(c);
    if (arena_.kind(item) == NodeKind::kSymbol) {
      labels.emplace_back(arena_.symbolId(item), body.size());
    } else {
      body.push_back(item);
    }
  }

  NodeRef result = sexpr::kNilRef;
  std::size_t pc = 0;
  std::uint64_t jumps = 0;
  try {
    while (pc < body.size()) {
      try {
        evalForm(body[pc]);
        ++pc;
      } catch (const GoSignal& signal) {
        if (++jumps > options_.maxSteps) error("prog: jump budget exceeded");
        bool found = false;
        for (const auto& [label, index] : labels) {
          if (label == signal.label) {
            pc = index;
            found = true;
            break;
          }
        }
        if (!found) throw;  // label in an enclosing prog
      }
    }
  } catch (const ReturnSignal& signal) {
    result = signal.value;
  }
  env_.unwindTo(mark);
  return result;
}

NodeRef Interpreter::evalSetq(NodeRef rest) {
  NodeRef value = sexpr::kNilRef;
  while (!arena_.isNil(rest)) {
    const NodeRef nameNode = arena_.car(rest);
    if (arena_.kind(nameNode) != NodeKind::kSymbol) {
      error("setq: variable name must be a symbol");
    }
    rest = arena_.cdr(rest);
    if (arena_.isNil(rest)) error("setq: missing value form");
    value = evalForm(arena_.car(rest));
    env_.assign(arena_.symbolId(nameNode), value);
    rest = arena_.cdr(rest);
  }
  return value;
}

NodeRef Interpreter::evalDef(NodeRef rest) {
  // (def name (lambda (params) body...))  — thesis style
  // (defun name (params) body...)         — sugar
  const NodeRef nameNode = arena_.car(rest);
  if (arena_.kind(nameNode) != NodeKind::kSymbol) {
    error("def: function name must be a symbol");
  }
  const SymbolId name = arena_.symbolId(nameNode);

  NodeRef params;
  NodeRef body;
  const NodeRef second = arena_.car(arena_.cdr(rest));
  if (arena_.kind(second) == NodeKind::kCons &&
      arena_.kind(arena_.car(second)) == NodeKind::kSymbol &&
      arena_.symbolId(arena_.car(second)) == syms_->lambda) {
    params = arena_.car(arena_.cdr(second));
    body = arena_.cdr(arena_.cdr(second));
  } else {
    params = second;
    body = arena_.cdr(arena_.cdr(rest));
  }

  Function function;
  function.name = symbols_.name(name);
  for (NodeRef c = params; !arena_.isNil(c); c = arena_.cdr(c)) {
    function.params.push_back(arena_.symbolId(arena_.car(c)));
  }
  for (NodeRef c = body; !arena_.isNil(c); c = arena_.cdr(c)) {
    function.body.push_back(arena_.car(c));
  }
  if (function.body.empty()) error("def: empty function body");
  functions_[name] = std::move(function);
  return nameNode;
}

NodeRef Interpreter::evalLet(NodeRef rest) {
  const Environment::Mark mark = env_.mark();
  for (NodeRef c = arena_.car(rest); !arena_.isNil(c); c = arena_.cdr(c)) {
    const NodeRef pair = arena_.car(c);
    const SymbolId name = arena_.symbolId(arena_.car(pair));
    const NodeRef value = evalForm(arena_.car(arena_.cdr(pair)));
    env_.bind(name, value);
  }
  NodeRef value = sexpr::kNilRef;
  for (NodeRef c = arena_.cdr(rest); !arena_.isNil(c); c = arena_.cdr(c)) {
    value = evalForm(arena_.car(c));
  }
  env_.unwindTo(mark);
  return value;
}

NodeRef Interpreter::evalWhile(NodeRef rest) {
  const NodeRef test = arena_.car(rest);
  const NodeRef body = arena_.cdr(rest);
  while (!arena_.isNil(evalForm(test))) {
    for (NodeRef c = body; !arena_.isNil(c); c = arena_.cdr(c)) {
      evalForm(arena_.car(c));
    }
  }
  return sexpr::kNilRef;
}

NodeRef Interpreter::applyFunction(const Function& function,
                                   const std::vector<NodeRef>& args) {
  if (args.size() != function.params.size()) {
    error("function '" + function.name + "' expects " +
          std::to_string(function.params.size()) + " argument(s), got " +
          std::to_string(args.size()));
  }
  if (tracer_) {
    tracer_->onFunctionEnter(function.name, static_cast<int>(args.size()));
  }
  const Environment::Mark mark = env_.mark();
  env_.enterFrame();
  for (std::size_t i = 0; i < args.size(); ++i) {
    env_.bind(function.params[i], args[i]);
  }
  NodeRef value = sexpr::kNilRef;
  try {
    for (const NodeRef form : function.body) {
      value = evalForm(form);
    }
  } catch (...) {
    env_.unwindTo(mark);
    env_.exitFrame();
    if (tracer_) tracer_->onFunctionExit(function.name);
    throw;
  }
  env_.unwindTo(mark);
  env_.exitFrame();
  if (tracer_) tracer_->onFunctionExit(function.name);
  return value;
}

NodeRef Interpreter::applyLambda(NodeRef lambda,
                                 const std::vector<NodeRef>& args) {
  Function function;
  function.name = "lambda";
  const NodeRef params = arena_.car(arena_.cdr(lambda));
  for (NodeRef c = params; !arena_.isNil(c); c = arena_.cdr(c)) {
    function.params.push_back(arena_.symbolId(arena_.car(c)));
  }
  for (NodeRef c = arena_.cdr(arena_.cdr(lambda)); !arena_.isNil(c);
       c = arena_.cdr(c)) {
    function.body.push_back(arena_.car(c));
  }
  if (function.body.empty()) error("lambda: empty body");
  return applyFunction(function, args);
}

NodeRef Interpreter::applyBuiltin(SymbolId head,
                                  const std::vector<NodeRef>& args) {
  const Syms& s = *syms_;
  ++builtinDispatch_[head];
  auto tracePrim = [&](Primitive primitive, NodeRef result) {
    if (tracer_) {
      tracer_->onPrimitive(primitive,
                           std::span<const NodeRef>(args.data(), args.size()),
                           result);
    }
    return result;
  };
  auto traceWith = [&](Primitive primitive, std::span<const NodeRef> in,
                       NodeRef result) {
    if (tracer_) tracer_->onPrimitive(primitive, in, result);
    return result;
  };

  // --- traced list primitives ---
  if (head == s.car) {
    checkArity(args, 1, "car");
    return tracePrim(Primitive::kCar, arena_.car(args[0]));
  }
  if (head == s.cdr) {
    checkArity(args, 1, "cdr");
    return tracePrim(Primitive::kCdr, arena_.cdr(args[0]));
  }
  // CxR compositions trace as their constituent primitive chain, exactly as
  // an interpreter built on car/cdr would.
  if (head == s.caar || head == s.cadr || head == s.cddr || head == s.cdar) {
    checkArity(args, 1, "cxr");
    const bool innerCar = (head == s.caar || head == s.cadr) ? false : false;
    (void)innerCar;
    NodeRef inner;
    Primitive innerOp;
    Primitive outerOp;
    if (head == s.caar) {
      innerOp = Primitive::kCar;
      outerOp = Primitive::kCar;
    } else if (head == s.cadr) {
      innerOp = Primitive::kCdr;
      outerOp = Primitive::kCar;
    } else if (head == s.cddr) {
      innerOp = Primitive::kCdr;
      outerOp = Primitive::kCdr;
    } else {  // cdar
      innerOp = Primitive::kCar;
      outerOp = Primitive::kCdr;
    }
    inner = innerOp == Primitive::kCar ? arena_.car(args[0])
                                       : arena_.cdr(args[0]);
    traceWith(innerOp, std::span<const NodeRef>(args.data(), 1), inner);
    const NodeRef outer =
        outerOp == Primitive::kCar ? arena_.car(inner) : arena_.cdr(inner);
    const std::array<NodeRef, 1> innerArgs = {inner};
    return traceWith(outerOp,
                     std::span<const NodeRef>(innerArgs.data(), 1), outer);
  }
  if (head == s.cons) {
    checkArity(args, 2, "cons");
    return tracePrim(Primitive::kCons, arena_.cons(args[0], args[1]));
  }
  if (head == s.rplaca) {
    checkArity(args, 2, "rplaca");
    arena_.setCar(args[0], args[1]);
    return tracePrim(Primitive::kRplaca, args[0]);
  }
  if (head == s.rplacd) {
    checkArity(args, 2, "rplacd");
    arena_.setCdr(args[0], args[1]);
    return tracePrim(Primitive::kRplacd, args[0]);
  }
  // Predicates are *not* traced: the thesis instrumented "list access or
  // modify" functions, and Fig 3.1's "other" bucket stays under 10%.
  if (head == s.atom) {
    checkArity(args, 1, "atom");
    return boolean(arena_.isAtom(args[0]));
  }
  if (head == s.null) {
    checkArity(args, 1, "null");
    return boolean(arena_.isNil(args[0]));
  }
  if (head == s.equal) {
    checkArity(args, 2, "equal");
    return boolean(arena_.equal(args[0], args[1]));
  }
  if (head == s.append) {
    checkArity(args, 2, "append");
    // Copy the first list's spine; share the second.
    std::vector<NodeRef> spine;
    for (NodeRef c = args[0]; !arena_.isNil(c); c = arena_.cdr(c)) {
      if (arena_.isAtom(c)) error("append: first argument not a list");
      spine.push_back(arena_.car(c));
    }
    NodeRef result = args[1];
    for (std::size_t i = spine.size(); i-- > 0;) {
      result = arena_.cons(spine[i], result);
    }
    return tracePrim(Primitive::kAppend, result);
  }
  if (head == s.read) {
    checkArity(args, 0, "read");
    NodeRef value = sexpr::kNilRef;
    if (!input_.empty()) {
      value = input_.front();
      input_.pop_front();
    }
    return tracePrim(Primitive::kRead, value);
  }
  if (head == s.write || head == s.print) {
    checkArity(args, 1, "write");
    output_.push_back(args[0]);
    return tracePrim(Primitive::kWrite, args[0]);
  }
  if (head == s.list) {
    NodeRef result = sexpr::kNilRef;
    for (std::size_t i = args.size(); i-- > 0;) {
      const NodeRef next = arena_.cons(args[i], result);
      const std::array<NodeRef, 2> consArgs = {args[i], result};
      traceWith(Primitive::kCons,
                std::span<const NodeRef>(consArgs.data(), 2), next);
      result = next;
    }
    return result;
  }

  // --- untraced builtins ---
  if (head == s.eq) {
    checkArity(args, 2, "eq");
    const bool same =
        args[0] == args[1] ||
        (arena_.kind(args[0]) == NodeKind::kInteger &&
         arena_.kind(args[1]) == NodeKind::kInteger &&
         arena_.integerValue(args[0]) == arena_.integerValue(args[1])) ||
        (arena_.kind(args[0]) == NodeKind::kSymbol &&
         arena_.kind(args[1]) == NodeKind::kSymbol &&
         arena_.symbolId(args[0]) == arena_.symbolId(args[1]));
    return boolean(same);
  }
  if (head == s.notSym) {
    checkArity(args, 1, "not");
    return boolean(arena_.isNil(args[0]));
  }
  if (head == s.plus || head == s.minus || head == s.times ||
      head == s.quotient || head == s.remainder) {
    if (args.empty()) error("arithmetic on no arguments");
    std::int64_t acc = requireInt(args[0], "arithmetic");
    if (head == s.minus && args.size() == 1) return arena_.integer(-acc);
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::int64_t value = requireInt(args[i], "arithmetic");
      if (head == s.plus) {
        acc += value;
      } else if (head == s.minus) {
        acc -= value;
      } else if (head == s.times) {
        acc *= value;
      } else if (value == 0) {
        error("division by zero");
      } else if (head == s.quotient) {
        acc /= value;
      } else {
        acc %= value;
      }
    }
    return arena_.integer(acc);
  }
  if (head == s.eqNum || head == s.lt || head == s.gt || head == s.le ||
      head == s.ge) {
    checkArity(args, 2, "comparison");
    const std::int64_t a = requireInt(args[0], "comparison");
    const std::int64_t b = requireInt(args[1], "comparison");
    bool value = false;
    if (head == s.eqNum) value = a == b;
    if (head == s.lt) value = a < b;
    if (head == s.gt) value = a > b;
    if (head == s.le) value = a <= b;
    if (head == s.ge) value = a >= b;
    return boolean(value);
  }
  if (head == s.zerop) {
    checkArity(args, 1, "zerop");
    return boolean(arena_.kind(args[0]) == NodeKind::kInteger &&
                   arena_.integerValue(args[0]) == 0);
  }
  if (head == s.numberp) {
    checkArity(args, 1, "numberp");
    return boolean(arena_.kind(args[0]) == NodeKind::kInteger);
  }
  if (head == s.listp) {
    checkArity(args, 1, "listp");
    return boolean(arena_.kind(args[0]) == NodeKind::kCons ||
                   arena_.isNil(args[0]));
  }

  error("undefined function '" + symbols_.name(head) + "'");
}

std::vector<std::pair<std::string, std::uint64_t>>
Interpreter::primitiveCounts() const {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  counts.reserve(builtinDispatch_.size());
  for (const auto& [symbol, count] : builtinDispatch_) {
    counts.emplace_back(symbols_.name(symbol), count);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

void Interpreter::contributeObs(obs::Registry& registry) const {
  registry.add(obs::names::kLispSteps, steps_);
  for (const auto& [name, count] : primitiveCounts()) {
    registry.add(std::string(obs::names::kLispPrimPrefix) + name, count);
  }
}

}  // namespace small::lisp
