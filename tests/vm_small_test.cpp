// Tests for the SMALL-backed emulator, including differential runs
// against the plain emulator over a program battery.
#include <gtest/gtest.h>

#include "vm/compiler.hpp"
#include "vm/emulator.hpp"

namespace small::vm {
namespace {

class SmallVmTest : public ::testing::Test {
 protected:
  std::vector<std::string> runOnSmall(std::string_view source,
                                      std::string_view input = "") {
    Compiler compiler(arena, symbols);
    const Program program = compiler.compile(source);
    SmallEmulator emulator(arena, symbols);
    feed(emulator, input);
    emulator.run(program);
    lastSplits = emulator.machine().stats().splits;
    lastHits = emulator.machine().stats().hits;
    emulator.shutdown();
    lastEntriesAfterShutdown = emulator.machine().entriesInUse();
    lastHeapAfterShutdown = emulator.machine().heapCellsLive();
    return emulator.output();
  }

  std::vector<std::string> runOnPlain(std::string_view source,
                                      std::string_view input = "") {
    Compiler compiler(arena, symbols);
    const Program program = compiler.compile(source);
    Emulator emulator(arena, symbols);
    feed(emulator, input);
    emulator.run(program);
    return emulator.output();
  }

  template <typename E>
  void feed(E& emulator, std::string_view input) {
    if (input.empty()) return;
    sexpr::Reader reader(arena, symbols);
    for (const auto form : reader.readAll(input)) {
      emulator.provideInput(form);
    }
  }

  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
  std::uint64_t lastSplits = 0;
  std::uint64_t lastHits = 0;
  std::uint32_t lastEntriesAfterShutdown = 0;
  std::uint64_t lastHeapAfterShutdown = 0;
};

TEST_F(SmallVmTest, FactorialRunsOnTheSmallMachine) {
  const auto out = runOnSmall(R"(
    (def fact (lambda (x)
      (cond ((= x 0) 1)
            (t (* x (fact (- x 1)))))))
    (write (fact 10)))");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "3628800");
}

TEST_F(SmallVmTest, ListTraversalSplitsThenHits) {
  const auto out = runOnSmall(R"(
    (def walk (lambda (l)
      (cond ((null l) 0)
            (t (+ 1 (walk (cdr l)))))))
    (prog (x)
      (setq x (quote (a b c d e f)))
      (write (walk x))
      (write (walk x))))");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "6");
  EXPECT_EQ(out[1], "6");
  // The second walk re-traverses the same (cached constant) object: its
  // cdr chain is already split, so it hits the LPT fields.
  EXPECT_GT(lastSplits, 0u);
  EXPECT_GE(lastHits, 6u);
}

TEST_F(SmallVmTest, ShutdownDrainsMachine) {
  runOnSmall("(write (cons 1 (quote (2 3))))");
  EXPECT_EQ(lastEntriesAfterShutdown, 0u);
  EXPECT_EQ(lastHeapAfterShutdown, 0u);
}

TEST_F(SmallVmTest, ScavengerPoliciesPreserveProgramOutput) {
  // Build and drop three 40-cons chains through a 24-entry table, so
  // endo-structure is compressed into real heap cells and each dropped
  // chain becomes heap garbage. Run once with eager refcount-driven
  // frees, then once per in-machine scavenger policy: output identical,
  // and each scavenger genuinely collected.
  const char* source = R"(
    (def build (lambda (m)
      (prog (acc n)
        (setq acc nil)
        (setq n m)
        loop
        (cond ((= n 0) (write (car acc)) (return nil)))
        (setq acc (cons n acc))
        (setq n (- n 1))
        (go loop))))
    (build 40)
    (build 40)
    (build 40))";
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(source);

  SmallEmulator::Options options;
  options.machine.tableSize = 24;
  SmallEmulator eager(arena, symbols, options);
  eager.run(program);
  const std::vector<std::string> reference = eager.output();
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_EQ(eager.gcStats().collections, 0u);

  for (const gc::Policy policy :
       {gc::Policy::kMarkSweep, gc::Policy::kGenerational,
        gc::Policy::kIncremental}) {
    options.machine.gcPolicy = policy;
    options.machine.gcTriggerCells = 16;  // collect often in a small run
    options.machine.gcStepBudget = 64;    // several slices per cycle
    SmallEmulator scavenged(arena, symbols, options);
    scavenged.run(program);
    EXPECT_EQ(scavenged.output(), reference) << gc::policyName(policy);
    EXPECT_GT(scavenged.gcStats().collections, 0u)
        << gc::policyName(policy);
    EXPECT_GT(scavenged.gcStats().cellsReclaimed, 0u)
        << gc::policyName(policy);
    scavenged.shutdown();
    EXPECT_EQ(scavenged.machine().entriesInUse(), 0u)
        << gc::policyName(policy);
    EXPECT_EQ(scavenged.machine().heapCellsLive(), 0u)
        << gc::policyName(policy);
  }
}

TEST_F(SmallVmTest, OutputSnapshotsAtWriteTime) {
  // WRLIST records the printed text immediately on both stores, so a
  // later rplacd cannot rewrite history.
  const char* source = R"(
    (prog (x)
      (setq x (quote (a b c)))
      (rplaca x (quote z))
      (write x)
      (rplacd x (quote (q)))
      (write x)))";
  for (const auto& out : {runOnSmall(source), runOnPlain(source)}) {
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], "(z b c)");
    EXPECT_EQ(out[1], "(z q)");
  }
}

TEST_F(SmallVmTest, DifferentialAgainstPlainEmulator) {
  struct Case {
    const char* program;
    const char* input;
  };
  const Case cases[] = {
      {"(write (car (quote (a b))))", ""},
      {"(write (cdr (quote (a b))))", ""},
      {"(write (cons (quote x) (cons 1 nil)))", ""},
      {"(write (atom (quote (a))))", ""},
      {"(write (equal (quote (a (b))) (quote (a (b)))))", ""},
      {"(def rev (lambda (l acc)\n"
       "  (cond ((null l) acc)\n"
       "        (t (rev (cdr l) (cons (car l) acc))))))\n"
       "(write (rev (quote (1 2 3 4 5)) nil))",
       ""},
      {"(def app (lambda (a b)\n"
       "  (cond ((null a) b)\n"
       "        (t (cons (car a) (app (cdr a) b))))))\n"
       "(write (app (quote (a b)) (quote (c d))))",
       ""},
      {"(def len (lambda (l)\n"
       "  (cond ((null l) 0) (t (+ 1 (len (cdr l)))))))\n"
       "(prog (x) (setq x (read)) (write (len x)) (write (car x)))",
       "(p q r s)"},
      {"(def fib (lambda (n)\n"
       "  (cond ((< n 2) n)\n"
       "        (t (+ (fib (- n 1)) (fib (- n 2)))))))\n"
       "(write (fib 12))",
       ""},
  };
  for (const Case& c : cases) {
    const auto small = runOnSmall(c.program, c.input);
    const auto plain = runOnPlain(c.program, c.input);
    ASSERT_EQ(small.size(), plain.size()) << c.program;
    for (std::size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(small[i], plain[i]) << c.program;
    }
    EXPECT_EQ(lastEntriesAfterShutdown, 0u) << c.program;
  }
}

TEST_F(SmallVmTest, TinyTableCompressesUnderLoad) {
  // An iterative builder: after each (setq acc (cons n acc)) only the new
  // head carries an EP reference; the tail below it is endo-structure the
  // machine can fold into the heap when the table fills. (A *recursive*
  // builder would pin every level through live bindings and genuinely
  // exhaust a 24-entry table — that is the documented failure mode.)
  Compiler compiler(arena, symbols);
  const Program program = compiler.compile(R"(
    (prog (acc n)
      (setq n 40)
      (setq acc nil)
      loop
      (cond ((= n 0) (write acc) (return acc)))
      (setq acc (cons n acc))
      (setq n (- n 1))
      (go loop)))");
  SmallEmulator::Options options;
  options.machine.tableSize = 24;
  SmallEmulator emulator(arena, symbols, options);
  emulator.run(program);
  ASSERT_EQ(emulator.output().size(), 1u);
  EXPECT_EQ(emulator.output()[0].substr(0, 12), "(1 2 3 4 5 6");
  // The 40-cons chain cannot fit in 24 entries: endo-structure must have
  // been compressed into the heap along the way.
  EXPECT_GT(emulator.machine().stats().merges, 0u);
  EXPECT_GT(emulator.machine().stats().pseudoOverflows, 0u);
}

}  // namespace
}  // namespace small::vm
