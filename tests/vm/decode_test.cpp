// Bit-transparency of the pre-decoded micro-op engine (vm/decode.hpp):
// for every program, check mode and failure flavour, the fast engine and
// the reference interpreter must produce *identical* RunResults — cycles,
// breakdowns, shadow cycles, every counter, segment/heap/kernel stats,
// per-function profiles, fault details and printed output. Host-side TLB
// statistics are the one documented exemption.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cash.hpp"
#include "vm/decode.hpp"
#include "vm/machine_impl.hpp"
#include "workloads/workloads.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;

constexpr CheckMode kAllModes[] = {CheckMode::kNoCheck,   CheckMode::kBcc,
                                   CheckMode::kCash,      CheckMode::kBoundInsn,
                                   CheckMode::kEfence,    CheckMode::kShadow};

const char* mode_name(CheckMode mode) {
  switch (mode) {
    case CheckMode::kNoCheck:   return "nocheck";
    case CheckMode::kBcc:       return "bcc";
    case CheckMode::kCash:      return "cash";
    case CheckMode::kBoundInsn: return "boundinsn";
    case CheckMode::kEfence:    return "efence";
    case CheckMode::kShadow:    return "shadow";
  }
  return "?";
}

using vm::expect_identical; // run_result_compare.hpp

// Compiles `source` for `mode` and runs it on all three engines — fused
// micro-op stream (the default), unfused plain stream, and the reference
// interpreter — comparing the complete RunResult pairwise. `entry` selects
// run_function (nullptr = run main).
void run_both(const std::string& source, CheckMode mode,
              std::uint64_t max_instructions = 0,
              const char* entry = nullptr) {
  CompileOptions options;
  options.lower.mode = mode;
  if (max_instructions != 0) {
    options.machine.max_instructions = max_instructions;
  }
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_NE(compiled.program->decoded(), nullptr);
  EXPECT_TRUE(compiled.program->decoded()->ok());

  vm::MachineConfig unfused_cfg = compiled.program->options().machine;
  unfused_cfg.enable_fusion = false;
  vm::MachineConfig slow_cfg = compiled.program->options().machine;
  slow_cfg.enable_predecode = false;
  std::unique_ptr<vm::Machine> fast = compiled.program->make_machine();
  std::unique_ptr<vm::Machine> unfused =
      compiled.program->make_machine(unfused_cfg);
  std::unique_ptr<vm::Machine> slow =
      compiled.program->make_machine(slow_cfg);
  const vm::RunResult rf =
      entry != nullptr ? fast->run_function(entry) : fast->run();
  const vm::RunResult ru =
      entry != nullptr ? unfused->run_function(entry) : unfused->run();
  const vm::RunResult rs =
      entry != nullptr ? slow->run_function(entry) : slow->run();
  std::string ctx = std::string("mode=") + mode_name(mode);
  if (entry != nullptr) {
    ctx += std::string(" entry=") + entry;
  }
  if (max_instructions != 0) {
    ctx += " max=" + std::to_string(max_instructions);
  }
  expect_identical(rs, rf, ctx + " [fused vs interp]");
  expect_identical(rs, ru, ctx + " [unfused vs interp]");
}

void run_all_modes(const std::string& source,
                   std::uint64_t max_instructions = 0,
                   const char* entry = nullptr) {
  for (CheckMode mode : kAllModes) {
    run_both(source, mode, max_instructions, entry);
  }
}

// Exercises every IR opcode the decoder lowers: integer and float
// constants, every binary and unary operator, global scalars and arrays,
// local scalars and arrays, heap pointers parked in memory, nested and
// recursive calls, branches, loops, and all the statically-costed builtins.
constexpr const char* kEveryOpcode = R"(
int gtable[32];
int gscalar;
int *stash;
float accum;
int fill(int n) {
  int i;
  for (i = 0; i < n; i++) {
    gtable[i] = i * 3 - (i % 5) + (i / 2);
  }
  return n;
}
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int bits(int x) {
  return ((x & 5) | (x ^ 3)) + (x << 2) + (x >> 1) + ~x + !x;
}
float mathy(float x) {
  return sqrt(x) + fabs(0.0 - x) + sin(x) + cos(x) + exp(x / 8.0) +
         log(x + 1.0) + floor(x * 1.5) + pow(x, 2.0);
}
int locals(int n) {
  int buf[16];
  int i; int s;
  s = 0;
  for (i = 0; i < 16; i++) {
    buf[i] = gtable[(i + n) % 32] + bits(i);
    s = s + buf[i];
  }
  return s;
}
int heapwork(int n) {
  int *p;
  int i; int s;
  p = malloc(64);
  stash = p;
  p = stash;
  for (i = 0; i < 16; i++) {
    p[i] = i * n;
  }
  s = 0;
  for (i = 0; i < 16; i++) {
    s = s + p[i];
  }
  free(p);
  return s;
}
int main() {
  int i; int s;
  srand(99);
  fill(32);
  gscalar = bits(rand() % 100);
  accum = mathy(2.5);
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + locals(i) + heapwork(i) + fib(9);
  }
  print_int(s);
  print_int(gscalar);
  print_float(accum);
  print_int(abs(0 - s));
  if (s > 0 && gscalar < 100000) { print_int(1); } else { print_int(0); }
  if (s < 0 || gscalar > 0 - 100000) { print_int(2); }
  return s % 251;
}
)";

TEST(DecodeTransparency, EveryOpcodeEveryMode) {
  run_all_modes(kEveryOpcode);
}

TEST(DecodeTransparency, GlobalArrayOverflowEveryMode) {
  // In checked modes the fault fires (same kind, detail, partial charges);
  // in kNoCheck the write lands and both engines see the same final state.
  run_all_modes(R"(
int buf[8];
int smash(int n) {
  int i;
  for (i = 0; i < n; i++) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(20); }
)");
}

TEST(DecodeTransparency, LocalArrayOverflowEveryMode) {
  run_all_modes(R"(
int smash(int n) {
  int buf[4];
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i] = i;
    s = s + buf[i];
  }
  return s;
}
int main() { return smash(9); }
)");
}

TEST(DecodeTransparency, HeapOverflowThroughStoredPointerEveryMode) {
  run_all_modes(R"(
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
)");
}

TEST(DecodeTransparency, DivideByZeroFault) {
  // #DE is raised mid-group: the engine must charge the group prefix plus
  // the faulting op in full, exactly like the interpreter's per-op path.
  run_all_modes(R"(
int main() {
  int d; int i; int s;
  d = 0;
  s = 0;
  for (i = 0; i < 3; i++) { s = s + i; }
  return s / d;
}
)");
  run_all_modes(R"(
int main() {
  int d;
  d = 0;
  return 7 % d;
}
)");
}

TEST(DecodeTransparency, InstructionBudgetSweep) {
  // The budget must abort at the *same* instruction with the same partial
  // cycle charges whether the stream is folded or itemized. Sweep the cap
  // across group boundaries, call sites and the entry prologue.
  constexpr const char* kProgram = R"(
int work(int n) {
  int buf[8];
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 8] = i;
    s = s + buf[i % 8];
  }
  return s;
}
int main() {
  int t;
  t = work(6) + work(3);
  print_int(t);
  return t;
}
)";
  for (std::uint64_t max = 1; max <= 40; ++max) {
    run_both(kProgram, CheckMode::kCash, max);
    run_both(kProgram, CheckMode::kNoCheck, max);
  }
  run_both(kProgram, CheckMode::kBcc, 13);
  run_both(kProgram, CheckMode::kShadow, 17);
}

TEST(DecodeTransparency, BudgetInsideInfiniteLoop) {
  run_all_modes("int main() { while (1) {} return 0; }", 10000);
}

TEST(DecodeTransparency, StackOverflowFromDeepRecursion) {
  // Each frame carries a 16 KB local array; the 64 MB simulated stack
  // overflows a few thousand frames down, in the prologue — both engines
  // must report the identical error at the identical depth.
  run_both(R"(
int deep(int n) {
  int pad[4096];
  pad[0] = n;
  if (n == 0) { return 0; }
  return deep(n - 1) + pad[0];
}
int main() { return deep(1000000); }
)",
           CheckMode::kNoCheck);
}

TEST(DecodeTransparency, RunFunctionEntryPoints) {
  constexpr const char* kServer = R"(
int table[16];
int server_init() {
  int i;
  for (i = 0; i < 16; i++) { table[i] = i * 7; }
  return 0;
}
int handle_request() {
  int i; int s;
  s = 0;
  for (i = 0; i < 16; i++) { s = s + table[i] + rand() % 5; }
  return s;
}
int main() { server_init(); return handle_request(); }
)";
  run_all_modes(kServer, 0, "server_init");
  run_all_modes(kServer, 0, "handle_request");
}

TEST(DecodeTransparency, UnknownEntryFunction) {
  run_both("int main() { return 0; }", CheckMode::kCash, 0, "no_such_fn");
}

TEST(DecodeTransparency, RepeatedRunsAccumulateIdentically) {
  // Globals and the heap persist across runs of one machine; the engines
  // must agree run after run, not just on a fresh machine.
  constexpr const char* kCounter = R"(
int counter;
int main() {
  counter = counter + 1;
  print_int(counter);
  return counter;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kCounter, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::MachineConfig slow_cfg = compiled.program->options().machine;
  slow_cfg.enable_predecode = false;
  std::unique_ptr<vm::Machine> fast = compiled.program->make_machine();
  std::unique_ptr<vm::Machine> slow =
      compiled.program->make_machine(slow_cfg);
  for (int i = 0; i < 3; ++i) {
    expect_identical(slow->run(), fast->run(),
                     "run " + std::to_string(i));
  }
}

TEST(DecodeTransparency, EnablePredecodeOffForcesInterpreter) {
  // config.enable_predecode = false selects the reference interpreter even
  // though the program carries a decoded image and traces are on: the
  // results match, and no trace forms.
  constexpr const char* kLoop = R"(
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 100; i = i + 1) { s = s + i; }
  return s % 256;
}
)";
  CompileResult compiled = compile(kLoop, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::MachineConfig interp_cfg = compiled.program->options().machine;
  interp_cfg.enable_predecode = false;
  const vm::RunResult fast = compiled.program->make_machine()->run();
  const vm::RunResult forced =
      compiled.program->make_machine(interp_cfg)->run();
  expect_identical(forced, fast, "enable_predecode=false");
  EXPECT_EQ(fast.exit_code, 4950 % 256);
  EXPECT_GT(fast.trace_stats.traces_formed, 0u);
  EXPECT_EQ(forced.trace_stats.traces_formed, 0u);
}

TEST(DecodeTransparency, DirectMachineHasNoDecodedImage) {
  // A Machine constructed straight from the Module never runs fast — that
  // keeps differential coverage of the reference interpreter alive even
  // where callers forget to thread the decoded image through.
  constexpr const char* kSmall = "int main() { return 7; }";
  CompileResult compiled = compile(kSmall, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::Machine direct(compiled.program->module(),
                     compiled.program->options().machine);
  const vm::RunResult r = direct.run();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.exit_code, 7);
}

// Every field but the opcode.
bool same_operands(const vm::MicroInstr& a, const vm::MicroInstr& b) {
  return a.type == b.type && a.seg == b.seg && a.rebased == b.rebased &&
         a.is_ptr == b.is_ptr && a.synthetic == b.synthetic &&
         a.builtin == b.builtin && a.bin_op == b.bin_op &&
         a.un_op == b.un_op && a.dst == b.dst && a.src0 == b.src0 &&
         a.src1 == b.src1 && a.slot == b.slot && a.symbol == b.symbol &&
         a.imm == b.imm && a.aux == b.aux && a.target0 == b.target0 &&
         a.target1 == b.target1 && a.callee == b.callee && a.src == b.src;
}

TEST(DecodeTransparency, DecodedImageIsWellFormed) {
  CompileResult compiled = compile(kEveryOpcode, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::DecodedProgram* decoded = compiled.program->decoded();
  ASSERT_NE(decoded, nullptr);
  ASSERT_TRUE(decoded->ok());
  bool any_fused = false;
  for (const vm::DecodedFunction& fn : decoded->functions()) {
    ASSERT_TRUE(fn.ok);
    ASSERT_NE(fn.fn, nullptr);
    const std::vector<vm::MicroInstr>& plain = fn.plain.uops;
    const std::vector<vm::MicroInstr>& fused = fn.fused;
    // The fused copy has the plain slots' length, so it shares their
    // indices, groups and block entries.
    ASSERT_EQ(fused.size(), plain.size()) << fn.fn->name;
    for (std::uint32_t entry : fn.plain.block_entry) {
      ASSERT_LT(entry, plain.size());
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const vm::MicroInstr& u = plain[i];
      if (u.op != vm::UOp::kGroup) {
        EXPECT_EQ(fused[i].op, u.op) << fn.fn->name << " slot " << i;
        EXPECT_TRUE(same_operands(fused[i], u));
        continue;
      }
      // A group header maps to a FoldedGroup counting its members, which
      // are plain, one IR instruction each, with a terminator only last.
      ASSERT_LE(i + 1 + u.imm, plain.size());
      ASSERT_LT(u.aux, fn.plain.groups.size());
      EXPECT_EQ(fn.plain.groups[u.aux].count, u.imm);
      EXPECT_EQ(fused[i].op, vm::UOp::kGroup);
      EXPECT_TRUE(same_operands(fused[i], u));
      const std::size_t first = i + 1;
      const std::size_t end = first + u.imm;
      for (std::size_t m = first; m < end; ++m) {
        const vm::UOp op = plain[m].op;
        EXPECT_EQ(vm::super_row(op), nullptr) << "superinstruction in plain";
        EXPECT_NE(op, vm::UOp::kGuardBranch);
        if (op == vm::UOp::kJump || op == vm::UOp::kBranch) {
          EXPECT_EQ(m + 1, end) << "terminator mid-group in " << fn.fn->name;
        }
      }
      // Each fused slot equals its plain slot, except that the first slot
      // of a run names the row that covers the run, inside the group.
      for (std::size_t m = first; m < end;) {
        EXPECT_TRUE(same_operands(fused[m], plain[m]));
        const vm::SuperRow* row = vm::super_row(fused[m].op);
        if (row == nullptr) {
          EXPECT_EQ(fused[m].op, plain[m].op) << fn.fn->name << " slot " << m;
          ++m;
          continue;
        }
        any_fused = true;
        ASSERT_LE(m + row->width, end) << "row crosses its group";
        for (std::uint32_t k = 0; k < row->width; ++k) {
          EXPECT_EQ(vm::step_op(plain[m + k].op), row->parts[k]);
          if (k > 0) {
            EXPECT_EQ(fused[m + k].op, plain[m + k].op);
            EXPECT_TRUE(same_operands(fused[m + k], plain[m + k]));
          }
        }
        m += row->width;
      }
      i = end - 1;
    }
    EXPECT_LE(fn.stats.fused_instrs, fn.stats.foldable_instrs);
  }
  // The every-opcode corpus must exercise the rows.
  EXPECT_TRUE(any_fused);
  EXPECT_GT(decoded->fusion_stats().hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Fusion-boundary sweep (superinstruction stream vs plain stream vs
// interpreter). run_both already compares all three engines, so these cases
// focus on sources whose hot paths sit *inside* fused pairs/triples.

// Array walk whose inner loop is ptr-add + bound + load/store — the
// three-wide fusion patterns — with an out-of-bounds final iteration so the
// fault fires mid-fused-group.
constexpr const char* kFusedOverflow = R"(
int a[8];
int main() {
  int i;
  for (i = 0; i <= 8; i = i + 1) {
    a[i] = i * 3;
  }
  return a[7];
}
)";

// In-bounds variant: same shapes, runs to completion.
constexpr const char* kFusedClean = R"(
int a[16];
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 16; i = i + 1) {
    a[i] = i * 2 + 1;
  }
  for (i = 0; i < 16; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
)";

// Divide inside a const+bin fused pair faults on the last iteration.
constexpr const char* kFusedDivFault = R"(
int main() {
  int i;
  int s;
  s = 0;
  for (i = 3; i >= 0; i = i - 1) {
    s = s + 100 / i;
  }
  return s;
}
)";

TEST(DecodeFusion, FaultInsideFusedGroupEveryMode) {
  run_all_modes(kFusedOverflow);
}

TEST(DecodeFusion, CleanFusedKernelsEveryMode) {
  run_all_modes(kFusedClean);
}

TEST(DecodeFusion, DivideFaultInsideFusedPair) {
  for (CheckMode mode : kAllModes) {
    run_both(kFusedDivFault, mode);
  }
}

TEST(DecodeFusion, BudgetExpiresMidFusion) {
  // Sweep the instruction budget one IR instruction at a time across fused
  // kernels: every cut point — including ones that land between the
  // constituents of a fused pair/triple — must truncate identically to the
  // interpreter (fault detail, partial charges, instruction count).
  for (std::uint64_t max = 1; max <= 60; ++max) {
    run_both(kFusedClean, CheckMode::kCash, max);
    run_both(kFusedOverflow, CheckMode::kBoundInsn, max);
  }
  for (std::uint64_t max = 1; max <= 30; ++max) {
    run_both(kFusedDivFault, CheckMode::kShadow, max);
  }
}

TEST(DecodeFusion, PtrEventsScaleAcrossModes) {
  // Fat-pointer word copies are charged per mode (Cash = 1, Bcc/BoundInsn =
  // 2, others 0) at run time from mode-neutral ptr_events — fused ops must
  // preserve that scaling. Checked implicitly by run_both's three-way
  // comparison; here also pin the relative counter relationship.
  const auto count_copies = [](CheckMode mode) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult compiled = compile(kFusedClean, options);
    EXPECT_TRUE(compiled.ok()) << compiled.error;
    const vm::RunResult r = compiled.program->make_machine()->run();
    EXPECT_TRUE(r.ok) << r.error;
    return r.counters.ptr_word_copies;
  };
  const std::uint64_t cash = count_copies(CheckMode::kCash);
  const std::uint64_t bcc = count_copies(CheckMode::kBcc);
  const std::uint64_t none = count_copies(CheckMode::kNoCheck);
  EXPECT_EQ(none, 0u);
  EXPECT_EQ(bcc, 2 * cash);
}

TEST(DecodeFusion, EnableFusionOffDisablesFusion) {
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kFusedClean, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::MachineConfig plain_cfg = compiled.program->options().machine;
  plain_cfg.enable_fusion = false;
  const vm::RunResult fused = compiled.program->make_machine()->run();
  const vm::RunResult plain =
      compiled.program->make_machine(plain_cfg)->run();
  expect_identical(plain, fused, "enable_fusion=false");
}

TEST(DecodeFusion, HitRateGuardsEmptyDenominator) {
  // hit_rate() must be a plain 0.0 — never NaN — when fusion has nothing
  // to work with, both for a default-constructed FusionStats and for a
  // program whose only loop body is a single instruction (no adjacent
  // pair for the fusion pass to merge).
  const vm::FusionStats empty;
  EXPECT_EQ(empty.hit_rate(), 0.0);

  constexpr const char* kOneInstrLoop = R"(
int main() {
  int i;
  for (i = 9; i; i = i - 1) { }
  return i;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kNoCheck;
  CompileResult compiled = compile(kOneInstrLoop, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_NE(compiled.program->decoded(), nullptr);
  const double rate = compiled.program->decoded()->fusion_stats().hit_rate();
  EXPECT_FALSE(std::isnan(rate));
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  for (CheckMode mode : kAllModes) {
    run_both(kOneInstrLoop, mode);
  }
}

TEST(DecodeFusion, EveryFusedOpcodeIsEmitted) {
  // Each SUPER row of CASH_UOP_LIST must form somewhere: in the fused copy
  // of one of the 18 workloads in some check mode, or in a hot trace of a
  // small loop kernel. A row that never forms is dead weight in the matcher
  // and the engine.
  std::vector<bool> formed(static_cast<std::size_t>(vm::UOp::kCount));
  const auto mark = [&](const std::vector<vm::MicroInstr>& slots) {
    for (const vm::MicroInstr& u : slots) {
      formed[static_cast<std::size_t>(u.op)] = true;
    }
  };
  for (const auto* suite : {&workloads::micro_suite(),
                            &workloads::macro_suite(),
                            &workloads::network_suite()}) {
    for (const workloads::Workload& w : *suite) {
      for (CheckMode mode : kAllModes) {
        CompileOptions options;
        options.lower.mode = mode;
        CompileResult compiled = compile(w.source, options);
        ASSERT_TRUE(compiled.ok()) << w.name << ": " << compiled.error;
        const vm::DecodedProgram* decoded = compiled.program->decoded();
        ASSERT_NE(decoded, nullptr) << w.name;
        for (const vm::DecodedFunction& fn : decoded->functions()) {
          mark(fn.fused);
        }
      }
    }
  }
  // The engine-grid kernels, and a loop whose exit test compares a global
  // (the compare is then the only row part before its guard).
  const std::string kernels[] = {
      workloads::matmul_source(16),     workloads::gauss_source(16),
      workloads::fft2d_source(8),       workloads::edge_source(48, 32),
      workloads::volren_source(12, 24), workloads::svd_source(16, 12, 3),
      "int g; int main() { while (g < 1000) { g = g + 7; } return g; }"};
  for (const std::string& source : kernels) {
    for (CheckMode mode : kAllModes) {
      CompileOptions options;
      options.lower.mode = mode;
      CompileResult compiled = compile(source, options);
      ASSERT_TRUE(compiled.ok()) << compiled.error;
      const std::unique_ptr<vm::Machine> machine =
          compiled.program->make_machine();
      ASSERT_TRUE(machine->run().ok);
      for (const vm::FnTraceState& fn : machine->trace_cache()) {
        for (const vm::Trace& trace : fn.traces) {
          mark(trace.uops);
        }
      }
    }
  }
  const char* const names[] = {
#define CASH_UOP_NAME(name, ...) #name,
      CASH_UOP_LIST(CASH_UOP_NAME, CASH_UOP_NAME, CASH_UOP_NAME)
#undef CASH_UOP_NAME
  };
  for (const vm::SuperRow& row : vm::kSuperRows) {
    const std::size_t op = static_cast<std::size_t>(row.op);
    EXPECT_TRUE(formed[op]) << names[op] << " never forms";
  }
}

// ---------------------------------------------------------------------------
// Hot-trace superblock sweeps (DESIGN.md §11). run_both's fast machine
// runs with the default config — traces on, threshold 16 — so every case
// here compares the trace engine against the plain stream and the
// interpreter.

// A 30-iteration loop whose body is ~6 statements; statement `fault_stmt`
// (if >= 0) faults on iteration 24 — past the formation threshold, so the
// fault lands *inside* the formed superblock, at a different micro-op
// offset (including inside trace-time peephole superinstructions) for
// each position. `bound_flavor` swaps the divide-by-zero for an
// out-of-bounds store, exercising the checked-store fault paths instead.
std::string superblock_fault_source(int fault_stmt, bool bound_flavor) {
  std::string body;
  for (int j = 0; j < 6; ++j) {
    if (j == fault_stmt) {
      body += bound_flavor
                  ? "    buf[(i / 24) * 99] = s;\n"
                  : "    d = i - 24;\n    s = s + 100 / d;\n";
    } else {
      body += "    buf[(i + " + std::to_string(j) + ") % 16] = s + " +
              std::to_string(j) + ";\n    s = s + buf[(i * " +
              std::to_string(j + 2) + ") % 16];\n";
    }
  }
  return "int buf[16];\nint main() {\n  int i; int s; int d;\n  s = 1;\n"
         "  for (i = 0; i < 30; i = i + 1) {\n" +
         body + "  }\n  return s;\n}\n";
}

vm::TraceStats trace_stats_of(const std::string& source, CheckMode mode) {
  CompileOptions options;
  options.lower.mode = mode;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return compiled.program->make_machine()->run().trace_stats;
}

TEST(DecodeTrace, FaultAtEveryUopOffsetInsideSuperblock) {
  for (int flavor = 0; flavor < 2; ++flavor) {
    for (int k = 0; k < 6; ++k) {
      const std::string src =
          superblock_fault_source(k, /*bound_flavor=*/flavor == 1);
      for (CheckMode mode : kAllModes) {
        run_both(src, mode);
      }
      // The fault really lands mid-trace: the superblock formed and ran
      // before iteration 24 reached the poisoned statement.
      const vm::TraceStats stats = trace_stats_of(src, CheckMode::kCash);
      EXPECT_GT(stats.traces_formed, 0u) << "stmt=" << k;
      EXPECT_GT(stats.trace_execs, 0u) << "stmt=" << k;
    }
  }
}

TEST(DecodeTrace, BudgetExpiresInsideSuperblock) {
  // Budget cut points swept across the region where the superblock is hot:
  // truncation must land on the exact same IR instruction, with the same
  // partial charges, whether the engine was mid-trace or not.
  const std::string clean = superblock_fault_source(-1, false);
  const vm::TraceStats stats = trace_stats_of(clean, CheckMode::kCash);
  ASSERT_GT(stats.trace_execs, 0u);
  for (std::uint64_t max = 300; max <= 420; ++max) {
    run_both(clean, CheckMode::kCash, max);
  }
  for (std::uint64_t max = 300; max <= 360; ++max) {
    run_both(clean, CheckMode::kBoundInsn, max);
    run_both(clean, CheckMode::kShadow, max);
  }
}

TEST(DecodeTrace, EnableTraceOffDisablesTraces) {
  const std::string src = superblock_fault_source(-1, false);
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(src, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  vm::MachineConfig off_cfg = compiled.program->options().machine;
  off_cfg.enable_trace = false;
  const vm::RunResult traced = compiled.program->make_machine()->run();
  const vm::RunResult config_off =
      compiled.program->make_machine(off_cfg)->run();

  EXPECT_GT(traced.trace_stats.traces_formed, 0u);
  EXPECT_EQ(config_off.trace_stats.traces_formed, 0u);
  EXPECT_EQ(config_off.trace_stats.trace_execs, 0u);
  expect_identical(config_off, traced, "trace on vs enable_trace=false");
}

} // namespace
} // namespace cash
