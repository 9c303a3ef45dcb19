// Optimiser tests: semantics preservation (especially the signed div/rem
// strength reduction around negative operands), hoisting, CSE and DCE
// effectiveness, and cycle-count reductions.
#include <gtest/gtest.h>

#include "core/cash.hpp"
#include "frontend/irgen.hpp"
#include "passes/optimize.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

using passes::CheckMode;

vm::RunResult run_src(const std::string& source, bool optimize) {
  CompileOptions options;
  options.lower.mode = CheckMode::kNoCheck;
  options.optimize = optimize;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  vm::RunResult run = compiled.program->run();
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  return run;
}

void expect_same_output_less_cycles(const std::string& source,
                                    bool strictly_fewer = true) {
  const vm::RunResult raw = run_src(source, false);
  const vm::RunResult opt = run_src(source, true);
  EXPECT_EQ(raw.output, opt.output);
  EXPECT_EQ(raw.exit_code, opt.exit_code);
  if (strictly_fewer) {
    EXPECT_LT(opt.cycles, raw.cycles);
  } else {
    EXPECT_LE(opt.cycles, raw.cycles);
  }
}

TEST(Optimizer, SignedDivRemByPowerOfTwoMatchesCSemantics) {
  // Exhaustively compare x / C and x % C against the interpreter's own
  // unoptimised idiv path for negative, zero and positive operands.
  const char* source = R"(
int main() {
  int i;
  int acc = 0;
  for (i = 0 - 37; i <= 37; i++) {
    acc = acc * 3 + i / 8 + i % 8 + i / 2 + i % 16;
    print_int(i / 8);
    print_int(i % 8);
  }
  return acc;
}
)";
  const vm::RunResult raw = run_src(source, false);
  const vm::RunResult opt = run_src(source, true);
  EXPECT_EQ(raw.output, opt.output);
  EXPECT_EQ(raw.exit_code, opt.exit_code);
  EXPECT_LT(opt.cycles, raw.cycles); // idiv 24 -> ~5 ops
}

TEST(Optimizer, MulByPowerOfTwoBecomesShift) {
  expect_same_output_less_cycles(R"(
int main() {
  int i; int s = 0;
  for (i = 0; i < 100; i++) {
    s = s + i * 16 + i * 1;
  }
  print_int(s);
  return 0;
}
)");
}

TEST(Optimizer, LoopInvariantAddressComputationIsHoisted) {
  // i*N inside the k-loop is invariant; without LICM it costs a multiply
  // per iteration.
  expect_same_output_less_cycles(R"(
int a[64];
int main() {
  int i; int k; int s = 0;
  for (i = 0; i < 8; i++) {
    for (k = 0; k < 8; k++) {
      s = s + a[i * 8 + k];
    }
  }
  print_int(s);
  return 0;
}
)");
}

TEST(Optimizer, CseRemovesRepeatedSubexpressions) {
  expect_same_output_less_cycles(R"(
int a[16];
int main() {
  int i; int s = 0;
  for (i = 0; i < 16; i++) {
    a[i * 3 % 16] = a[i * 3 % 16] + 1;
    s = s + a[i * 3 % 16];
  }
  print_int(s);
  return 0;
}
)");
}

TEST(Optimizer, DivByZeroStillFaultsAfterOptimization) {
  const char* source = R"(
int main() {
  int x = 4;
  int y = 0;
  return x / y;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kNoCheck;
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok());
  const vm::RunResult run = compiled.program->run();
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kInvalidOpcode);
}

TEST(Optimizer, DivInsideConditionalIsNotHoistedSpeculatively) {
  // The division only executes when safe; LICM must not move it to the
  // preheader where it would fault.
  const char* source = R"(
int main() {
  int i; int d = 0; int s = 0;
  for (i = 0; i < 10; i++) {
    if (d != 0) {
      s = s + 100 / d;
    }
  }
  print_int(s);
  return 0;
}
)";
  const vm::RunResult opt = run_src(source, true);
  EXPECT_EQ(opt.output, "0\n");
}

TEST(Optimizer, PointerHoistKeepsShadowInfoIntact) {
  // Hoisting kAddrLocal/kAddrGlobal must not lose the bound metadata —
  // the Cash check still fires.
  const char* source = R"(
int buf[8];
int main() {
  int i;
  for (i = 0; i < 12; i++) {
    buf[i] = i;
  }
  return 0;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok());
  const vm::RunResult run = compiled.program->run();
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.bound_violation());
}

TEST(Optimizer, ReportsWorkDone) {
  DiagnosticSink diagnostics;
  auto module = frontend::compile_to_ir(R"(
int a[64];
int main() {
  int i; int k; int s = 0;
  for (i = 0; i < 8; i++) {
    for (k = 0; k < 8; k++) {
      s = s + a[i * 8 + k] * 4;
    }
  }
  return s;
}
)",
                                        diagnostics);
  ASSERT_NE(module, nullptr);
  const passes::OptStats stats = passes::optimize_module(*module);
  EXPECT_GT(stats.strength_reduced, 0U);
  EXPECT_GT(stats.hoisted, 0U);
  EXPECT_GT(stats.dead_removed, 0U);
}

TEST(Optimizer, WorkloadChecksumsUnchanged) {
  // The macro workloads must compute identical results with and without
  // optimisation — a broad semantics-preservation sweep.
  for (const auto& w : workloads::macro_suite()) {
    if (w.name != "Gif2png" && w.name != "RayLab") {
      continue; // two representative apps keep this test fast
    }
    const vm::RunResult raw = run_src(w.source, false);
    const vm::RunResult opt = run_src(w.source, true);
    EXPECT_EQ(raw.output, opt.output) << w.name;
  }
}

// --- Invalidation rules of the optimiser's indexing --------------------------
//
// Hand-built IR, so each test controls exactly which definitions, loads and
// stores the optimiser sees.

using ir::BasicBlock;
using ir::BinOp;
using ir::Opcode;
using ir::Reg;

ir::Function function_with_slots(int slots) {
  ir::Function f;
  f.name = "hand";
  f.return_type = ir::Type::kInt;
  for (int i = 0; i < slots; ++i) {
    ir::LocalSlot slot;
    slot.name = "v";
    slot.name += std::to_string(i);
    f.locals.push_back(slot);
  }
  return f;
}

// Appends instructions to one block of `f`.
struct Emit {
  ir::Function& f;
  BasicBlock& b;

  Reg append(ir::Instr instr, Reg dst) {
    instr.dst = dst;
    b.instrs.push_back(instr);
    return dst;
  }
  Reg konst(std::int32_t value) {
    ir::Instr i;
    i.op = Opcode::kConstInt;
    i.int_imm = value;
    return append(i, f.new_reg());
  }
  Reg load(std::int32_t slot) {
    ir::Instr i;
    i.op = Opcode::kLoadLocal;
    i.slot = slot;
    return append(i, f.new_reg());
  }
  void store(std::int32_t slot, Reg value) {
    ir::Instr i;
    i.op = Opcode::kStoreLocal;
    i.slot = slot;
    i.src0 = value;
    b.instrs.push_back(i);
  }
  // `dst` may name an existing register, to define it more than once.
  Reg bin(BinOp op, Reg a, Reg c, Reg dst = ir::kNoReg) {
    ir::Instr i;
    i.op = Opcode::kBin;
    i.bin_op = op;
    i.src0 = a;
    i.src1 = c;
    return append(i, dst == ir::kNoReg ? f.new_reg() : dst);
  }
  void jump(ir::BlockId target) {
    ir::Instr i;
    i.op = Opcode::kJump;
    i.target0 = target;
    b.instrs.push_back(i);
  }
  void branch(Reg cond, ir::BlockId taken, ir::BlockId not_taken) {
    ir::Instr i;
    i.op = Opcode::kBranch;
    i.src0 = cond;
    i.target0 = taken;
    i.target1 = not_taken;
    b.instrs.push_back(i);
  }
  void ret(Reg value) {
    ir::Instr i;
    i.op = Opcode::kRet;
    i.src0 = value;
    b.instrs.push_back(i);
  }
};

int count_ops(const BasicBlock& block, Opcode op) {
  int n = 0;
  for (const ir::Instr& instr : block.instrs) {
    n += instr.op == op ? 1 : 0;
  }
  return n;
}

// Two loads of slot 0 with a store to `stored_slot` between them.
passes::OptStats optimize_two_loads(int stored_slot, int& loads_left) {
  ir::Function f = function_with_slots(2);
  BasicBlock& b = f.new_block("entry");
  f.entry = b.id;
  Emit e{f, b};
  const Reg first = e.load(0);
  e.store(stored_slot, e.konst(5));
  const Reg second = e.load(0);
  e.ret(e.bin(BinOp::kAdd, first, second));
  const passes::OptStats stats = passes::optimize_function(f);
  loads_left = count_ops(b, Opcode::kLoadLocal);
  return stats;
}

TEST(OptimizerIndexing, StoreToTheSlotBetweenTwoLoadsBlocksReuse) {
  int loads_left = 0;
  const passes::OptStats stats = optimize_two_loads(0, loads_left);
  EXPECT_EQ(stats.cse_replaced, 0U);
  EXPECT_EQ(loads_left, 2);
}

TEST(OptimizerIndexing, StoreToAnotherSlotBetweenTwoLoadsKeepsReuse) {
  int loads_left = 0;
  const passes::OptStats stats = optimize_two_loads(1, loads_left);
  EXPECT_EQ(stats.cse_replaced, 1U);
  EXPECT_EQ(loads_left, 1);
}

TEST(OptimizerIndexing, RedefiningAMultiDefOperandBlocksReuse) {
  // m + c, then (optionally) m redefined, then m + c again.
  const auto cse_count = [](bool redefine) {
    ir::Function f = function_with_slots(2);
    BasicBlock& b = f.new_block("entry");
    f.entry = b.id;
    Emit e{f, b};
    const Reg x = e.load(0);
    const Reg c = e.konst(3);
    const Reg m = e.bin(BinOp::kSub, x, c);
    e.store(1, e.bin(BinOp::kAdd, m, c));
    if (redefine) {
      e.bin(BinOp::kMul, x, x, m);
    }
    e.store(1, e.bin(BinOp::kAdd, m, c));
    e.ret(m);
    return passes::optimize_function(f).cse_replaced;
  };
  EXPECT_EQ(cse_count(false), 1U);
  EXPECT_EQ(cse_count(true), 0U);
}

TEST(OptimizerIndexing, DefiningAnOperandBetweenEqualExpressionsBlocksReuse) {
  // a + c is computed, then a gets its one definition, then a + c again:
  // the two sums read different values of a.
  ir::Function f = function_with_slots(2);
  BasicBlock& b = f.new_block("entry");
  f.entry = b.id;
  Emit e{f, b};
  const Reg a = f.new_reg();
  const Reg c = e.konst(3);
  e.store(1, e.bin(BinOp::kAdd, a, c));
  ir::Instr def;
  def.op = Opcode::kLoadLocal;
  def.slot = 0;
  e.append(def, a);
  e.store(1, e.bin(BinOp::kAdd, a, c));
  e.ret(a);
  EXPECT_EQ(passes::optimize_function(f).cse_replaced, 0U);
}

TEST(OptimizerIndexing, LoadOfASlotStoredInTheLoopIsNotHoisted) {
  // pre -> body (loads slots 0 and 1, stores slot 0) -> body | exit
  ir::Function f = function_with_slots(2);
  BasicBlock& pre = f.new_block("pre");
  BasicBlock& body = f.new_block("body");
  BasicBlock& exit = f.new_block("exit");
  f.entry = pre.id;
  Emit{f, pre}.jump(body.id);
  Emit e{f, body};
  const Reg stored = e.load(0);
  const Reg invariant = e.load(1);
  const Reg sum = e.bin(BinOp::kAdd, stored, invariant);
  e.store(0, sum);
  e.branch(sum, body.id, exit.id);
  Emit{f, exit}.ret(sum);
  ir::Loop loop;
  loop.id = 0;
  loop.preheader = pre.id;
  loop.header = body.id;
  loop.body = {body.id};
  f.loops.push_back(loop);

  const passes::OptStats stats = passes::optimize_function(f);
  EXPECT_EQ(stats.hoisted, 1U);
  ASSERT_EQ(count_ops(body, Opcode::kLoadLocal), 1);
  EXPECT_EQ(body.instrs.front().slot, 0);
  ASSERT_EQ(count_ops(pre, Opcode::kLoadLocal), 1);
  EXPECT_EQ(pre.instrs.front().slot, 1);
  EXPECT_EQ(pre.instrs.back().op, Opcode::kJump);
}

TEST(OptimizerIndexing, InvariantLeavesAThreeDeepNestOneLevelPerLoop) {
  // b0 -> b1 -> b2 -> b3 (innermost, computes k = 7 + 7 and stores it)
  // b3 -> b3 | b4;  b4 -> b2 | b5;  b5 -> b1 | b6 (exit)
  ir::Function f = function_with_slots(1);
  std::vector<BasicBlock*> b;
  for (int i = 0; i < 7; ++i) {
    b.push_back(&f.new_block("b" + std::to_string(i)));
  }
  f.entry = b[0]->id;
  for (int i = 0; i < 3; ++i) {
    Emit{f, *b[i]}.jump(b[i + 1]->id);
  }
  Emit inner{f, *b[3]};
  const Reg seven = inner.konst(7);
  inner.store(0, inner.bin(BinOp::kAdd, seven, seven));
  inner.branch(inner.load(0), b[3]->id, b[4]->id);
  Emit{f, *b[4]}.branch(Emit{f, *b[4]}.load(0), b[2]->id, b[5]->id);
  Emit{f, *b[5]}.branch(Emit{f, *b[5]}.load(0), b[1]->id, b[6]->id);
  Emit{f, *b[6]}.ret(seven);
  const auto add_loop = [&](int depth, int preheader, int first, int last) {
    ir::Loop loop;
    loop.id = static_cast<ir::LoopId>(f.loops.size());
    loop.depth = depth;
    loop.preheader = b[preheader]->id;
    loop.header = b[first]->id;
    for (int i = first; i <= last; ++i) {
      loop.body.push_back(b[i]->id);
    }
    f.loops.push_back(loop);
  };
  add_loop(1, 0, 1, 5);
  add_loop(2, 1, 2, 4);
  add_loop(3, 2, 3, 3);

  const passes::OptStats stats = passes::optimize_function(f);
  // Deepest loop first: the constant and the add move b3 -> b2, then
  // b2 -> b1, then b1 -> b0 — two instructions, three moves each.
  EXPECT_EQ(stats.hoisted, 6U);
  ASSERT_EQ(b[0]->instrs.size(), 3U);
  EXPECT_EQ(b[0]->instrs[0].op, Opcode::kConstInt);
  EXPECT_EQ(b[0]->instrs[1].op, Opcode::kBin);
  EXPECT_EQ(b[0]->instrs[2].op, Opcode::kJump);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(b[i]->instrs.size(), 1U) << "b" << i;
  }
  EXPECT_EQ(count_ops(*b[3], Opcode::kBin), 0);
}

} // namespace
} // namespace cash
