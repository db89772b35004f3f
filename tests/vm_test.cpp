// Tests for the §4.3.4 stack-machine compiler and emulator.
#include <gtest/gtest.h>

#include "support/error.hpp"
#include "vm/compiler.hpp"
#include "vm/emulator.hpp"

namespace small::vm {
namespace {

class VmTest : public ::testing::Test {
 protected:
  /// Compile and run; the program writes its results via (write ...).
  std::vector<std::string> runProgram(std::string_view source,
                                      std::string_view input = "") {
    Compiler compiler(arena, symbols);
    const Program program = compiler.compile(source);
    Emulator emulator(arena, symbols);
    if (!input.empty()) {
      sexpr::Reader reader(arena, symbols);
      for (const auto form : reader.readAll(input)) {
        emulator.provideInput(form);
      }
    }
    emulator.run(program);
    return emulator.output();
  }

  /// Run a hand-built program on both stores: each must reject it with
  /// an EvalError.
  void expectRejected(const Program& program) {
    Emulator plain(arena, symbols);
    EXPECT_THROW(plain.run(program), support::EvalError);
    SmallEmulator small(arena, symbols);
    EXPECT_THROW(small.run(program), support::EvalError);
  }

  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
};

TEST_F(VmTest, FactorialMatchesFig414) {
  // The thesis' flagship compilation example.
  const auto out = runProgram(R"(
    (def fact (lambda (x)
      (cond ((= x 0) 1)
            (t (* x (fact (- x 1)))))))
    (write (fact 10)))");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "3628800");
}

TEST_F(VmTest, ListManipulationMatchesFig415) {
  // Fig 4.15: print the cdr of what was read, then chop two elements.
  const auto out = runProgram(R"(
    (def print-it (lambda (junk)
      (write (cdr junk))))
    (def doit (lambda ()
      (prog (lst)
        (setq lst (read))
        (print-it lst)
        (setq lst (cdr (cdr lst)))
        (write lst))))
    (doit))",
                              "(a b c d)");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "(b c d)");
  EXPECT_EQ(out[1], "(c d)");
}

TEST_F(VmTest, ArithmeticAndComparisons) {
  const auto out = runProgram(R"(
    (write (+ 2 3))
    (write (- 10 4))
    (write (* 6 7))
    (write (/ 9 2))
    (write (> 3 2))
    (write (< 3 2))
    (write (= 4 4)))");
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0], "5");
  EXPECT_EQ(out[1], "6");
  EXPECT_EQ(out[2], "42");
  EXPECT_EQ(out[3], "4");
  EXPECT_EQ(out[4], "t");
  EXPECT_EQ(out[5], "nil");
  EXPECT_EQ(out[6], "t");
}

TEST_F(VmTest, ListOps) {
  const auto out = runProgram(R"(
    (write (car (quote (a b))))
    (write (cdr (quote (a b))))
    (write (cons 1 (quote (2 3))))
    (write (atom (quote x)))
    (write (null nil))
    (write (equal (quote (a b)) (quote (a b)))))");
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "(b)");
  EXPECT_EQ(out[2], "(1 2 3)");
  EXPECT_EQ(out[3], "t");
  EXPECT_EQ(out[4], "t");
  EXPECT_EQ(out[5], "t");
}

TEST_F(VmTest, RplacaRplacd) {
  const auto afterRplaca = runProgram(R"(
    (prog (x)
      (setq x (quote (a b c)))
      (rplaca x (quote z))
      (write x)))");
  EXPECT_EQ(afterRplaca[0], "(z b c)");
  const auto afterRplacd = runProgram(R"(
    (prog (x)
      (setq x (quote (p b c)))
      (rplaca x (quote z))
      (rplacd x (quote (q)))
      (write x)))");
  EXPECT_EQ(afterRplacd[0], "(z q)");
}

TEST_F(VmTest, CondFallThroughYieldsNil) {
  const auto out = runProgram("(write (cond (nil 1) (nil 2)))");
  EXPECT_EQ(out[0], "nil");
}

TEST_F(VmTest, ProgLoopWithGo) {
  const auto out = runProgram(R"(
    (def sum-to (lambda (n)
      (prog (i acc)
        (setq i 0)
        (setq acc 0)
        loop
        (cond ((> i n) (return acc)))
        (setq acc (+ acc i))
        (setq i (+ i 1))
        (go loop))))
    (write (sum-to 100)))");
  EXPECT_EQ(out[0], "5050");
}

TEST_F(VmTest, MutualRecursionWithForwardReference) {
  // is-even calls is-odd before it is defined: the compile-then-verify
  // "backpatching" path.
  const auto out = runProgram(R"(
    (def is-even (lambda (n)
      (cond ((= n 0) t) (t (is-odd (- n 1))))))
    (def is-odd (lambda (n)
      (cond ((= n 0) nil) (t (is-even (- n 1))))))
    (write (is-even 10))
    (write (is-odd 7)))");
  EXPECT_EQ(out[0], "t");
  EXPECT_EQ(out[1], "t");
}

TEST_F(VmTest, UndefinedFunctionRejectedAtCompile) {
  Compiler compiler(arena, symbols);
  EXPECT_THROW(compiler.compile("(write (no-such-fn 1))"),
               support::EvalError);
}

TEST_F(VmTest, WrongArityRejectedAtRun) {
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(R"(
    (def f (lambda (a b) (+ a b)))
    (write (f 1)))");
  Emulator emulator(arena, symbols);
  EXPECT_THROW(emulator.run(program), support::EvalError);
}

TEST_F(VmTest, DeepRecursionCountsFunctionCalls) {
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(R"(
    (def count-down (lambda (n)
      (cond ((= n 0) 0) (t (count-down (- n 1))))))
    (write (count-down 500)))");
  Emulator emulator(arena, symbols);
  emulator.run(program);
  EXPECT_EQ(emulator.functionCalls(), 501u);
}

TEST_F(VmTest, ListOpsAreCounted) {
  Compiler compiler(arena, symbols);
  const Program program =
      compiler.compile("(write (car (cdr (quote (1 2 3)))))");
  Emulator emulator(arena, symbols);
  emulator.run(program);
  // car + cdr + write.
  EXPECT_EQ(emulator.listOps(), 3u);
}

TEST_F(VmTest, DisassemblyShowsThesisMnemonics) {
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(R"(
    (def fact (lambda (x)
      (cond ((= x 0) 1)
            (t (* x (fact (- x 1)))))))
    (write (fact 5)))");
  const std::string listing = disassemble(program, arena, symbols);
  EXPECT_NE(listing.find("fact:"), std::string::npos);
  EXPECT_NE(listing.find("BINDN"), std::string::npos);
  EXPECT_NE(listing.find("PUSHSTK"), std::string::npos);
  EXPECT_NE(listing.find("FCALL"), std::string::npos);
  EXPECT_NE(listing.find("FRETN"), std::string::npos);
  EXPECT_NE(listing.find("MULOP"), std::string::npos);
}

TEST_F(VmTest, StepBudgetTerminatesRunaways) {
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(R"(
    (prog ()
      loop
      (go loop)))");
  Emulator::Options options;
  options.maxSteps = 10000;
  Emulator emulator(arena, symbols, options);
  EXPECT_THROW(emulator.run(program), support::EvalError);
}

TEST_F(VmTest, PushSymOutsideTheConstantPoolIsRejected) {
  Program program;
  program.constants.push_back(sexpr::kNilRef);
  program.code = {{Opcode::kPushSym, 1, 0}, {Opcode::kHalt, 0, 0}};
  expectRejected(program);
  program.code[0].operand = -1;
  expectRejected(program);
}

TEST_F(VmTest, FCallWithTooFewStackedArgumentsIsRejected) {
  // f declares one argument but has no BINDN prologue, so nothing pops
  // the missing argument: FRETN alone would compute a negative floor.
  Program program;
  program.constants.push_back(sexpr::kNilRef);
  program.functions.push_back({"f", 0, 1});
  program.code = {{Opcode::kPushSym, 0, 0},
                  {Opcode::kFRetn, 0, 0},
                  {Opcode::kFCall, 1, symbols.intern("f")},
                  {Opcode::kHalt, 0, 0}};
  program.start = 2;
  expectRejected(program);
}

TEST_F(VmTest, SetqOnAnEmptyStackIsRejected) {
  Program program;
  program.code = {{Opcode::kSetq, 0, symbols.intern("x")},
                  {Opcode::kHalt, 0, 0}};
  expectRejected(program);
}

TEST_F(VmTest, IntegerOverflowIsRejected) {
  Compiler compiler(arena, symbols);
  for (const char* source :
       {"(write (* 4611686018427387904 2))",
        "(write (+ 9223372036854775807 1))",
        "(write (- (- 0 9223372036854775807) 2))",
        "(write (/ (- (- 0 9223372036854775807) 1) (- 0 1)))"}) {
    expectRejected(compiler.compile(source));
  }
}

TEST_F(VmTest, VmAgreesWithReferenceValues) {
  // Cross-check a small battery of programs against expected outputs
  // (acts as a differential test of compiler + emulator).
  struct Case {
    const char* program;
    const char* expected;
  };
  const Case cases[] = {
      {"(write (cons (quote a) nil))", "(a)"},
      {"(def sq (lambda (x) (* x x))) (write (sq 12))", "144"},
      {"(write (cond ((atom (quote (a))) 1) (t 2)))", "2"},
      {"(def fib (lambda (n) (cond ((< n 2) n) "
       "(t (+ (fib (- n 1)) (fib (- n 2))))))) (write (fib 15))",
       "610"},
      {"(write (not nil))", "t"},
  };
  for (const Case& c : cases) {
    const auto out = runProgram(c.program);
    ASSERT_EQ(out.size(), 1u) << c.program;
    EXPECT_EQ(out[0], c.expected) << c.program;
  }
}

}  // namespace
}  // namespace small::vm
