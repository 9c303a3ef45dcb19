// Pins the decoder's per-micro-op static costs against the cost-model
// constants in common/costs.hpp, and pins superinstructions to no cost of
// their own. If a latency constant ever drifts, this test names the op
// that moved.
#include <gtest/gtest.h>

#include "common/costs.hpp"
#include "vm/decode.hpp"

namespace cash {
namespace {

using costs::StaticCost;
using vm::MicroInstr;
using vm::UOp;

MicroInstr make(UOp op) {
  MicroInstr u;
  u.op = op;
  return u;
}

void expect_cost(const MicroInstr& u, const StaticCost& want,
                 const char* what) {
  const StaticCost got = vm::static_cost(u);
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.checking, want.checking) << what;
  EXPECT_EQ(got.shadow, want.shadow) << what;
  EXPECT_EQ(got.ptr_events, want.ptr_events) << what;
  EXPECT_EQ(got.hw_checks, want.hw_checks) << what;
  EXPECT_EQ(got.sw_checks, want.sw_checks) << what;
  EXPECT_EQ(got.calls, want.calls) << what;
}

StaticCost cost_of(std::uint64_t cycles) {
  StaticCost c;
  c.cycles = cycles;
  return c;
}

TEST(StaticCost, RegisterResidentOps) {
  // Constants (int AND float — kConstFloat must not drift from the
  // register-op model), moves, local slot traffic and pointer arithmetic
  // are register-resident: kRegisterOp cycles, no checks.
  for (UOp op : {UOp::kConstInt, UOp::kConstFloat, UOp::kMove,
                 UOp::kLoadLocal, UOp::kStoreLocal, UOp::kPtrAdd}) {
    expect_cost(make(op), cost_of(costs::kRegisterOp), "register-resident");
  }
  // Fat-pointer moves and local slot traffic book one mode-scaled
  // ptr-copy event; pointer-add does not (it folds into addressing).
  for (UOp op : {UOp::kMove, UOp::kLoadLocal, UOp::kStoreLocal}) {
    MicroInstr u = make(op);
    u.is_ptr = true;
    StaticCost want = cost_of(costs::kRegisterOp);
    want.ptr_events = 1;
    expect_cost(u, want, "register-resident ptr");
  }
  MicroInstr padd = make(UOp::kPtrAdd);
  padd.is_ptr = true;
  expect_cost(padd, cost_of(costs::kRegisterOp), "ptr-add never copies");
}

TEST(StaticCost, BinaryAndUnaryOps) {
  MicroInstr u = make(UOp::kBin);
  u.bin_op = ir::BinOp::kAdd;
  expect_cost(u, cost_of(costs::kAluOp), "int add");
  u.bin_op = ir::BinOp::kMul;
  expect_cost(u, cost_of(costs::kMulOp), "mul");
  u.bin_op = ir::BinOp::kDiv;
  expect_cost(u, cost_of(costs::kDivOp), "div");
  u.bin_op = ir::BinOp::kRem;
  u.type = ir::Type::kInt;
  expect_cost(u, cost_of(costs::kDivOp), "int rem");
  u.type = ir::Type::kFloat;
  expect_cost(u, cost_of(costs::kAluOp), "float rem (fmod lowers to alu)");
  expect_cost(make(UOp::kUn), cost_of(costs::kAluOp), "unary");
}

TEST(StaticCost, MemoryOps) {
  // Plain load/store: one L1-hit cycle. Through an array segment
  // (rebased): same cycles plus one hardware-check count — the check
  // itself is free (kHardwareBoundCheck rides the translation pipeline).
  static_assert(costs::kHardwareBoundCheck == 0,
                "hardware checks are architecturally free");
  for (UOp op : {UOp::kLoad, UOp::kStore}) {
    expect_cost(make(op), cost_of(costs::kLoadStore), "load/store");
    MicroInstr checked = make(op);
    checked.rebased = true;
    StaticCost want = cost_of(costs::kLoadStore);
    want.hw_checks = 1;
    expect_cost(checked, want, "hw-checked load/store");
    MicroInstr ptr = make(op);
    ptr.is_ptr = true;
    want = cost_of(costs::kLoadStore);
    want.ptr_events = 1;
    expect_cost(ptr, want, "fat-pointer load/store");
  }
  // Global scalar traffic is never segment-checked.
  for (UOp op : {UOp::kLoadGlobal, UOp::kStoreGlobal}) {
    expect_cost(make(op), cost_of(costs::kLoadStore), "global load/store");
  }
  // Address materialisation costs one ALU op unless lowering synthesised
  // it (folded into the addressing mode).
  for (UOp op : {UOp::kAddrLocal, UOp::kAddrGlobal}) {
    expect_cost(make(op), cost_of(costs::kAluOp), "addr");
    MicroInstr synth = make(op);
    synth.synthetic = true;
    expect_cost(synth, cost_of(0), "synthetic addr");
  }
}

TEST(StaticCost, BoundChecks) {
  StaticCost sw;
  sw.checking = costs::kSoftwareBoundCheck;
  sw.sw_checks = 1;
  expect_cost(make(UOp::kBoundSw), sw, "software check");

  StaticCost bnd;
  bnd.checking = costs::kBoundInstruction;
  bnd.sw_checks = 1;
  expect_cost(make(UOp::kBoundBnd), bnd, "bound instruction");

  StaticCost shadow;
  shadow.checking = 1; // address-queue store on the main CPU
  shadow.shadow = 2 + costs::kSoftwareBoundCheck;
  shadow.sw_checks = 1;
  expect_cost(make(UOp::kBoundShadow), shadow, "shadow check");
}

TEST(StaticCost, ControlFlowAndBuiltins) {
  expect_cost(make(UOp::kJump), cost_of(costs::kBranch), "jump");
  expect_cost(make(UOp::kBranch), cost_of(costs::kBranch), "branch");

  const auto builtin_cost = [](vm::Builtin b, std::uint64_t cycles) {
    MicroInstr u = make(UOp::kBuiltin);
    u.builtin = b;
    StaticCost want = cost_of(cycles);
    want.calls = 1;
    expect_cost(u, want, "builtin");
  };
  for (vm::Builtin b : {vm::Builtin::kSqrt, vm::Builtin::kSin,
                        vm::Builtin::kCos, vm::Builtin::kExp,
                        vm::Builtin::kLog, vm::Builtin::kPow}) {
    builtin_cost(b, costs::kMathBuiltin);
  }
  for (vm::Builtin b :
       {vm::Builtin::kFabs, vm::Builtin::kFloor, vm::Builtin::kAbs}) {
    builtin_cost(b, costs::kAluOp);
  }
  builtin_cost(vm::Builtin::kPrintInt, 10);
  builtin_cost(vm::Builtin::kPrintFloat, 10);
  builtin_cost(vm::Builtin::kRand, 5);
  builtin_cost(vm::Builtin::kSrand, 2);
}

TEST(StaticCost, ItemizedOpsChargeNothingStatically) {
  // Dynamic-cost micro-ops account for themselves in the engine; their
  // static cost must stay zero or the group aggregation double-charges.
  for (UOp op : {UOp::kGroup, UOp::kSegLoad, UOp::kCallUser, UOp::kMalloc,
                 UOp::kFree, UOp::kRet, UOp::kBlockEndError}) {
    expect_cost(make(op), StaticCost{}, "itemized");
  }
}

// A superinstruction has no cost of its own: the engine charges only the
// plain slots it covers, so a static cost here would double-charge them.
TEST(StaticCost, SuperinstructionsChargeNothingStatically) {
  for (const vm::SuperRow& row : vm::kSuperRows) {
    expect_cost(make(row.op), StaticCost{}, "superinstruction");
  }
}

} // namespace
} // namespace cash
