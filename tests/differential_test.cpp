// Three-way differential testing: the interpreter, the compiled VM on
// plain s-expressions, and the compiled VM on the functional SMALL
// machine must agree on a battery of programs spanning the thesis-subset
// language. Disagreement anywhere means one of the three execution
// engines (or the compiler) is wrong.
#include <gtest/gtest.h>

#include "lisp/interpreter.hpp"
#include "sexpr/printer.hpp"
#include "vm/compiler.hpp"
#include "vm/emulator.hpp"
#include "vm/small_emulator.hpp"

namespace small {
namespace {

struct Engines {
  sexpr::SymbolTable symbols;
  sexpr::Arena arena;

  std::vector<std::string> interpret(std::string_view source,
                                     std::string_view input) {
    lisp::Interpreter interp(arena, symbols);
    if (!input.empty()) interp.provideInputText(input);
    interp.run(source);
    std::vector<std::string> out;
    for (const auto value : interp.output()) {
      out.push_back(sexpr::print(arena, symbols, value));
    }
    return out;
  }

  std::vector<std::string> compilePlain(std::string_view source,
                                        std::string_view input) {
    vm::Compiler compiler(arena, symbols);
    const vm::Program program = compiler.compile(source);
    vm::Emulator emulator(arena, symbols);
    feed(emulator, input);
    emulator.run(program);
    std::vector<std::string> out;
    for (const auto value : emulator.output()) {
      out.push_back(sexpr::print(arena, symbols, value));
    }
    return out;
  }

  struct SmallRun {
    std::vector<std::string> output;
    core::SmallMachine::Stats stats;
  };

  SmallRun compileSmall(std::string_view source, std::string_view input,
                        heap::HeapBackendKind backend) {
    vm::Compiler compiler(arena, symbols);
    const vm::Program program = compiler.compile(source);
    vm::SmallEmulator::Options options;
    options.machine.heapBackend = backend;
    vm::SmallEmulator emulator(arena, symbols, options);
    feed(emulator, input);
    emulator.run(program);
    SmallRun run;
    run.output = emulator.output();
    run.stats = emulator.machine().stats();
    return run;
  }

  template <typename E>
  void feed(E& emulator, std::string_view input) {
    if (input.empty()) return;
    sexpr::Reader reader(arena, symbols);
    for (const auto form : reader.readAll(input)) {
      emulator.provideInput(form);
    }
  }
};

struct ProgramCase {
  const char* name;
  const char* source;
  const char* input;
};

// Programs restricted to the common subset of all three engines (no
// destructive update after a write, since the reference emulator's
// outputs are live).
const ProgramCase kBattery[] = {
    {"atoms", "(write 42) (write nil) (write t) (write (quote sym))", ""},
    {"listops",
     "(write (car (quote (a b)))) (write (cdr (quote (a b))))"
     "(write (cons 1 (quote (2))))",
     ""},
    {"predicates",
     "(write (atom (quote a))) (write (null nil)) "
     "(write (equal (quote (x (y))) (quote (x (y)))))"
     "(write (not 4))",
     ""},
    {"arith",
     "(write (+ 17 25)) (write (- 3 10)) (write (* 6 7)) (write (/ 29 3))"
     "(write (< 1 2)) (write (> 1 2)) (write (= 5 5))",
     ""},
    {"cond",
     "(write (cond (nil 1) (t 2))) (write (cond (nil 1)))"
     "(write (cond ((= 1 2) (quote a)) ((= 3 3) (quote b)) (t (quote c))))",
     ""},
    {"factorial",
     "(def fact (lambda (x) (cond ((= x 0) 1) (t (* x (fact (- x 1)))))))"
     "(write (fact 9))",
     ""},
    {"fib",
     "(def fib (lambda (n) (cond ((< n 2) n) "
     "(t (+ (fib (- n 1)) (fib (- n 2))))))) (write (fib 14))",
     ""},
    {"reverse",
     "(def rev (lambda (l acc) (cond ((null l) acc) "
     "(t (rev (cdr l) (cons (car l) acc))))))"
     "(write (rev (quote (1 2 3 4 5 6 7)) nil))",
     ""},
    {"append",
     "(def app (lambda (a b) (cond ((null a) b) "
     "(t (cons (car a) (app (cdr a) b))))))"
     "(write (app (quote (a b c)) (quote (d e))))",
     ""},
    {"length-via-read",
     "(def len (lambda (l) (cond ((null l) 0) (t (+ 1 (len (cdr l)))))))"
     "(prog (x) (setq x (read)) (write (len x)) (write x))",
     "(alpha beta gamma delta)"},
    {"prog-loop",
     "(prog (i acc) (setq i 0) (setq acc nil)"
     " loop (cond ((> i 5) (write acc) (return acc)))"
     " (setq acc (cons i acc)) (setq i (+ i 1)) (go loop))",
     ""},
    {"nested-calls",
     "(def twice (lambda (x) (+ x x)))"
     "(def quad (lambda (x) (twice (twice x))))"
     "(write (quad 11))",
     ""},
    {"mutual-recursion",
     "(def even-p (lambda (n) (cond ((= n 0) t) (t (odd-p (- n 1))))))"
     "(def odd-p (lambda (n) (cond ((= n 0) nil) (t (even-p (- n 1))))))"
     "(write (even-p 14)) (write (odd-p 14))",
     ""},
    {"structure-build",
     "(def pairs (lambda (n) (cond ((= n 0) nil) "
     "(t (cons (cons n (* n n)) (pairs (- n 1)))))))"
     "(write (pairs 5))",
     ""},
};

// gtest's default printer dumps the raw bytes, pointers included, into the
// test names CTest discovers; printing the case name keeps them stable.
void PrintTo(const ProgramCase& c, std::ostream* os) { *os << c.name; }

class Battery : public ::testing::TestWithParam<ProgramCase> {};

TEST_P(Battery, AllThreeEnginesAgree) {
  const ProgramCase& c = GetParam();
  Engines engines;
  const auto interpreted = engines.interpret(c.source, c.input);
  const auto plain = engines.compilePlain(c.source, c.input);
  const auto smallBacked = engines.compileSmall(
      c.source, c.input, heap::HeapBackendKind::kTwoPointer);

  ASSERT_EQ(interpreted.size(), plain.size());
  ASSERT_EQ(interpreted.size(), smallBacked.output.size());
  for (std::size_t i = 0; i < interpreted.size(); ++i) {
    EXPECT_EQ(interpreted[i], plain[i]) << c.name << " output " << i;
    EXPECT_EQ(interpreted[i], smallBacked.output[i])
        << c.name << " output " << i;
  }
}

// The same compiled program on every heap backend must print the same
// text AND report the same representation-independent machine counters:
// splits, hits, merges, gets/frees, cons/modify traffic all depend only
// on the logical structure, never on how the heap lays cells out.
TEST_P(Battery, AllHeapBackendsAgree) {
  const ProgramCase& c = GetParam();
  Engines engines;
  const auto reference = engines.compileSmall(
      c.source, c.input, heap::HeapBackendKind::kTwoPointer);

  for (const heap::HeapBackendKind kind :
       {heap::HeapBackendKind::kCdrCoded,
        heap::HeapBackendKind::kLinkedVector}) {
    const auto run = engines.compileSmall(c.source, c.input, kind);
    const char* backend = heap::heapBackendName(kind);
    ASSERT_EQ(reference.output.size(), run.output.size())
        << c.name << " on " << backend;
    for (std::size_t i = 0; i < run.output.size(); ++i) {
      EXPECT_EQ(reference.output[i], run.output[i])
          << c.name << " output " << i << " on " << backend;
    }
    EXPECT_EQ(reference.stats.gets, run.stats.gets) << backend;
    EXPECT_EQ(reference.stats.frees, run.stats.frees) << backend;
    EXPECT_EQ(reference.stats.splits, run.stats.splits) << backend;
    EXPECT_EQ(reference.stats.hits, run.stats.hits) << backend;
    EXPECT_EQ(reference.stats.merges, run.stats.merges) << backend;
    EXPECT_EQ(reference.stats.conses, run.stats.conses) << backend;
    EXPECT_EQ(reference.stats.modifies, run.stats.modifies) << backend;
    EXPECT_EQ(reference.stats.readLists, run.stats.readLists) << backend;
    EXPECT_EQ(reference.stats.refOps, run.stats.refOps) << backend;
    EXPECT_EQ(reference.stats.pseudoOverflows, run.stats.pseudoOverflows)
        << backend;
    EXPECT_EQ(reference.stats.peakEntriesInUse, run.stats.peakEntriesInUse)
        << backend;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, Battery, ::testing::ValuesIn(kBattery),
    [](const ::testing::TestParamInfo<ProgramCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace small
