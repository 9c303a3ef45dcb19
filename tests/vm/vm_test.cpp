// Interpreter tests: arithmetic semantics, control flow, recursion,
// builtins, fault handling, cost accounting, and the segment-register
// save/restore discipline across calls.
#include <gtest/gtest.h>

#include "core/cash.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;

vm::RunResult run_src(const std::string& source,
                      CheckMode mode = CheckMode::kNoCheck) {
  CompileOptions options;
  options.lower.mode = mode;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  if (!compiled.ok()) {
    return {};
  }
  return compiled.program->run();
}

TEST(Vm, IntegerArithmeticSemantics) {
  const vm::RunResult r = run_src(R"(
int main() {
  print_int(7 / 2);
  print_int(0 - 7 / 2);
  print_int(7 % 3);
  print_int((0 - 7) % 3);
  print_int(5 & 3);
  print_int(5 | 3);
  print_int(5 ^ 3);
  print_int(1 << 10);
  print_int(0 - 16 >> 2);
  print_int(~0);
  print_int(!3);
  print_int(!0);
  return 0;
}
)");
  ASSERT_TRUE(r.ok) << (r.fault ? r.fault->detail : r.error);
  EXPECT_EQ(r.output, "3\n-3\n1\n-1\n1\n7\n6\n1024\n-4\n-1\n0\n1\n");
}

TEST(Vm, FloatArithmeticAndConversions) {
  const vm::RunResult r = run_src(R"(
int main() {
  float f = 7.5;
  int t = f;
  print_int(t);
  print_float(f / 2.0);
  print_float(1 + 0.5);
  print_int(2.9);
  return 0;
}
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.output, "7\n3.75\n1.5\n2\n");
}

TEST(Vm, ShortCircuitEvaluationSkipsRhs) {
  const vm::RunResult r = run_src(R"(
int g;
int bump() { g = g + 1; return 1; }
int main() {
  int x;
  x = 0 && bump();
  x = 1 || bump();
  print_int(g);
  x = 1 && bump();
  x = 0 || bump();
  print_int(g);
  return x;
}
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.output, "0\n2\n");
}

TEST(Vm, RecursionWorks) {
  const vm::RunResult r = run_src(R"(
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() {
  print_int(fib(15));
  return 0;
}
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.output, "610\n");
}

TEST(Vm, RecursionWithLocalArraysReleasesSegments) {
  const vm::RunResult r = run_src(R"(
int depth(int n) {
  int scratch[8];
  scratch[n % 8] = n;
  if (n == 0) { return 0; }
  return scratch[n % 8] + depth(n - 1);
}
int main() {
  print_int(depth(20));
  return 0;
}
)",
                                  CheckMode::kCash);
  ASSERT_TRUE(r.ok) << (r.fault ? r.fault->detail : r.error);
  EXPECT_EQ(r.output, "210\n");
  // Every allocated segment was released on return.
  EXPECT_EQ(r.segment_stats.segments_in_use, 0U);
  EXPECT_EQ(r.segment_stats.alloc_requests, 21U);
}

TEST(Vm, CalleeClobberedSegmentRegistersAreRestored) {
  // The inner function uses ES (its own first array); the caller's loop
  // also uses ES. Without save/restore the caller's access after the call
  // would go through the callee's segment and fault.
  const vm::RunResult r = run_src(R"(
int helper(int x) {
  int tiny[2];
  int i;
  for (i = 0; i < 2; i++) {
    tiny[i] = x;
  }
  return tiny[0];
}
int big[64];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 64; i++) {
    big[i] = i;
    s = s + helper(i) + big[i];
  }
  print_int(s);
  return 0;
}
)",
                                  CheckMode::kCash);
  ASSERT_TRUE(r.ok) << (r.fault ? r.fault->detail : r.error);
  EXPECT_EQ(r.output, std::to_string(64 * 63 / 2 * 2) + "\n");
}

TEST(Vm, DeterministicRandIsSeedable) {
  const char* source = R"(
int main() {
  print_int(rand());
  print_int(rand());
  return 0;
}
)";
  CompileOptions options;
  options.machine.rng_seed = 7;
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok());
  const vm::RunResult a = compiled.program->run();
  const vm::RunResult b = compiled.program->run();
  EXPECT_EQ(a.output, b.output); // same seed, same stream

  CompileOptions other;
  other.machine.rng_seed = 8;
  CompileResult compiled2 = compile(source, other);
  ASSERT_TRUE(compiled2.ok());
  EXPECT_NE(compiled2.program->run().output, a.output);
}

TEST(Vm, InstructionBudgetStopsInfiniteLoops) {
  CompileOptions options;
  options.machine.max_instructions = 10000;
  CompileResult compiled = compile("int main() { while (1) {} return 0; }",
                                   options);
  ASSERT_TRUE(compiled.ok());
  const vm::RunResult r = compiled.program->run();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(Vm, GlobalScalarsPersistAcrossCalls) {
  const vm::RunResult r = run_src(R"(
int counter;
void tick() { counter = counter + 1; }
int main() {
  int i;
  for (i = 0; i < 5; i++) { tick(); }
  print_int(counter);
  return counter;
}
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.exit_code, 5);
}

TEST(Vm, PointerThroughMemoryKeepsShadowInfo) {
  // A pointer parked in a global scalar and reloaded must still carry its
  // bound metadata: the overflow through it is caught.
  const vm::RunResult r = run_src(R"(
int *stash;
int main() {
  int *p;
  int i;
  p = malloc(32);
  stash = p;
  p = stash;
  for (i = 0; i < 20; i++) {
    p[i] = i;
  }
  return 0;
}
)",
                                  CheckMode::kCash);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_TRUE(r.bound_violation());
}

TEST(Vm, CyclesAreMonotoneInWork) {
  const vm::RunResult small = run_src(
      "int main() { int i; int s = 0; "
      "for (i = 0; i < 10; i++) { s = s + i; } return s; }");
  const vm::RunResult large = run_src(
      "int main() { int i; int s = 0; "
      "for (i = 0; i < 1000; i++) { s = s + i; } return s; }");
  ASSERT_TRUE(small.ok && large.ok);
  EXPECT_GT(large.cycles, small.cycles);
  EXPECT_GT(large.counters.instructions, small.counters.instructions);
}

TEST(Vm, MathBuiltins) {
  const vm::RunResult r = run_src(R"(
int main() {
  print_float(sqrt(16.0));
  print_float(fabs(0.0 - 2.5));
  print_float(floor(2.75));
  print_float(pow(2.0, 10.0));
  print_int(abs(0 - 42));
  return 0;
}
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.output, "4\n2.5\n2\n1024\n42\n");
}

TEST(Vm, FaultDetailNamesFunctionAndLine) {
  const vm::RunResult r = run_src(R"(
int buf[4];
int smash() {
  int i;
  for (i = 0; i < 9; i++) {
    buf[i] = i;
  }
  return 0;
}
int main() { return smash(); }
)",
                                  CheckMode::kCash);
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_NE(r.fault->detail.find("smash"), std::string::npos);
  EXPECT_NE(r.fault->detail.find("line"), std::string::npos);
}

TEST(Vm, RunEndingOnAThrownFaultKeepsItsOutput) {
  // Physical memory runs out mid-loop: the frame allocator throws, and the
  // run ends in the resource-exhaustion fault with the output printed before
  // it, identically in the reference interpreter and the decoded engine.
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  options.machine.phys_frames = 512;
  const CompileResult compiled = compile(R"(
int main() {
  int *a;
  int i;
  a = malloc(4194304);
  print_int(7);
  for (i = 0; i < 1048576; i = i + 1024) {
    a[i] = i;
  }
  return 0;
}
)",
                                         options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::MachineConfig interpreter = options.machine;
  interpreter.enable_predecode = false;
  const vm::RunResult slow = compiled.program->make_machine(interpreter)->run();
  const vm::RunResult fast = compiled.program->make_machine()->run();
  EXPECT_EQ(slow.output, "7\n");
  ASSERT_TRUE(slow.fault.has_value()) << slow.error;
  EXPECT_EQ(slow.fault->kind, FaultKind::kResourceExhausted);
  vm::expect_identical(slow, fast, "interpreter vs decoded");
}

// Hand-built IR for the test below: globals `g` (scalar, symbol 0) and `a`
// (4-int array, symbol 1), and symbol 2, which names no global. main()
// stores 7 to `g`, prints 7, runs `op` on `symbol`, and returns `g`.
ir::Module global_access_module(ir::Opcode op, ir::SymbolId symbol) {
  ir::Module m;
  ir::GlobalVar scalar;
  scalar.name = "g";
  scalar.symbol = m.new_symbol();
  ir::GlobalVar array;
  array.name = "a";
  array.is_array = true;
  array.elem_count = 4;
  array.symbol = m.new_symbol();
  m.globals = {scalar, array};
  m.new_symbol();

  auto fn = std::make_unique<ir::Function>();
  fn->name = "main";
  fn->return_type = ir::Type::kInt;
  ir::BasicBlock& b = fn->new_block("entry");
  fn->entry = b.id;
  const auto emit = [&](ir::Opcode o, ir::SymbolId sym, ir::Reg dst,
                        ir::Reg src0) {
    ir::Instr in;
    in.op = o;
    in.symbol = sym;
    in.dst = dst;
    in.src0 = src0;
    in.int_imm = 7;
    b.instrs.push_back(in);
  };
  const ir::Reg seven = fn->new_reg();
  emit(ir::Opcode::kConstInt, ir::kNoSymbol, seven, ir::kNoReg);
  emit(ir::Opcode::kStoreGlobal, scalar.symbol, ir::kNoReg, seven);
  ir::Instr print;
  print.op = ir::Opcode::kCall;
  print.callee = "print_int";
  print.args = {seven};
  b.instrs.push_back(print);
  if (op == ir::Opcode::kStoreGlobal) {
    emit(op, symbol, ir::kNoReg, seven);
  } else {
    emit(op, symbol, fn->new_reg(), ir::kNoReg);
  }
  const ir::Reg result = fn->new_reg();
  emit(ir::Opcode::kLoadGlobal, scalar.symbol, result, ir::kNoReg);
  emit(ir::Opcode::kRet, ir::kNoSymbol, ir::kNoReg, result);
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(Vm, InterpreterGlobalAccessToMissingSymbolIsSimulatorLimit) {
  // A global access whose symbol names no global of its kind is malformed
  // IR that the front end never emits. The reference interpreter (a
  // Machine built straight from the Module has no decoded image) ends such
  // a run in a simulator-limit error, never reads through a stray address,
  // and keeps what the program printed before it.
  using ir::Opcode;
  struct Case {
    Opcode op;
    ir::SymbolId symbol;
    bool ok;
  };
  const Case cases[] = {
      {Opcode::kLoadGlobal, 0, true},   {Opcode::kStoreGlobal, 0, true},
      {Opcode::kAddrGlobal, 0, true},   {Opcode::kAddrGlobal, 1, true},
      {Opcode::kLoadGlobal, 1, false},  {Opcode::kStoreGlobal, 1, false},
      {Opcode::kLoadGlobal, 2, false},  {Opcode::kStoreGlobal, 2, false},
      {Opcode::kAddrGlobal, 2, false},  {Opcode::kLoadGlobal, 9, false},
      {Opcode::kStoreGlobal, 9, false}, {Opcode::kAddrGlobal, 9, false},
      {Opcode::kLoadGlobal, -1, false}, {Opcode::kAddrGlobal, -1, false},
  };
  for (const Case& c : cases) {
    const ir::Module module = global_access_module(c.op, c.symbol);
    vm::Machine machine(module, vm::MachineConfig{});
    const vm::RunResult r = machine.run();
    const std::string what =
        std::string(ir::to_string(c.op)) + " " + std::to_string(c.symbol);
    EXPECT_EQ(r.ok, c.ok) << what << ": " << r.error;
    EXPECT_EQ(r.output, "7\n") << what;
    if (c.ok) {
      EXPECT_EQ(r.exit_code, 7) << what;
    } else {
      EXPECT_FALSE(r.fault.has_value()) << what;
      EXPECT_EQ(r.error.rfind("simulator limit: ", 0), 0U)
          << what << ": " << r.error;
    }
  }
}

} // namespace
} // namespace cash
