// Compiler demo: reproduce Figures 4.14 and 4.15 — compile the thesis'
// factorial and list-manipulation examples to the SMALL stack machine,
// print the disassembly, and run them on the emulator.
#include <cstdio>
#include <string>

#include "vm/compiler.hpp"
#include "vm/emulator.hpp"

namespace {

void demo(const char* title, const char* source, const char* input) {
  using namespace small;
  std::printf("=== %s ===\n%s\n", title, source);

  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
  vm::Compiler compiler(arena, symbols);
  const vm::Program program = compiler.compile(source);

  std::puts("--- compiled code ---");
  std::fputs(vm::disassemble(program, arena, symbols).c_str(), stdout);

  vm::Emulator emulator(arena, symbols);
  if (input && *input) {
    sexpr::Reader reader(arena, symbols);
    for (const auto form : reader.readAll(input)) {
      emulator.provideInput(form);
    }
  }
  emulator.run(program);
  std::puts("--- output ---");
  for (const std::string& line : emulator.output()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("(%llu instructions, %llu list ops, %llu calls)\n\n",
              static_cast<unsigned long long>(
                  emulator.instructionsExecuted()),
              static_cast<unsigned long long>(emulator.listOps()),
              static_cast<unsigned long long>(emulator.functionCalls()));
}

}  // namespace

int main() {
  // Fig 4.14: the factorial function.
  demo("Fig 4.14 - factorial",
       R"((def fact (lambda (x)
  (cond ((= x 0) 1)
        (t (* x (fact (- x 1)))))))
(write (fact 12)))",
       "");

  // Fig 4.15: list manipulation and function calling.
  demo("Fig 4.15 - list manipulation and function calling",
       R"((def print-it (lambda (junk)
  (write (cdr junk))))
(def doit (lambda ()
  (prog (lst)
    (setq lst (read))
    (print-it lst)
    (setq lst (cdr (cdr lst)))
    (write lst))))
(doit))",
       "(this is a list of six)");
  return 0;
}
