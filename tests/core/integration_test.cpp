// End-to-end tests of the public API: compile MiniC under each checking
// mode, run it, and verify results, costs, and violation detection.
#include <gtest/gtest.h>

#include "core/cash.hpp"

namespace cash {
namespace {

using passes::CheckMode;

CompileOptions options_for(CheckMode mode, int seg_regs = 3) {
  CompileOptions options;
  options.lower.mode = mode;
  options.lower.num_seg_regs = seg_regs;
  return options;
}

vm::RunResult compile_and_run(const std::string& source, CheckMode mode,
                              int seg_regs = 3) {
  CompileResult compiled = compile(source, options_for(mode, seg_regs));
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  if (!compiled.ok()) {
    return {};
  }
  return compiled.program->run();
}

constexpr const char* kSumProgram = R"(
int a[10];
int main() {
  int i;
  int sum = 0;
  for (i = 0; i < 10; i = i + 1) {
    a[i] = i * i;
  }
  for (i = 0; i < 10; i = i + 1) {
    sum = sum + a[i];
  }
  print_int(sum);
  return sum;
}
)";

TEST(Integration, SumOfSquaresRunsInAllModes) {
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kBcc,
                         CheckMode::kCash, CheckMode::kBoundInsn,
                         CheckMode::kEfence}) {
    vm::RunResult run = compile_and_run(kSumProgram, mode);
    EXPECT_TRUE(run.ok) << to_string(mode) << ": "
                        << (run.fault ? run.fault->detail : run.error);
    EXPECT_EQ(run.exit_code, 285) << to_string(mode);
    EXPECT_EQ(run.output, "285\n") << to_string(mode);
  }
}

TEST(Integration, CashUsesHardwareChecksForInLoopRefs) {
  CompileResult compiled = compile(kSumProgram, options_for(CheckMode::kCash));
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const passes::LowerStats& stats = compiled.program->lower_stats();
  EXPECT_EQ(stats.hw_checks, 2U);  // a[i] store + a[i] load
  EXPECT_EQ(stats.sw_checks, 0U);
  EXPECT_EQ(stats.seg_loads, 2U);  // one hoisted load per loop

  vm::RunResult run = compiled.program->run();
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.counters.hw_checked_accesses, 20U);
  EXPECT_EQ(run.counters.sw_checks, 0U);
  EXPECT_EQ(run.counters.seg_reg_loads, 2U);
}

TEST(Integration, BccInsertsSoftwareCheckEverywhere) {
  CompileResult compiled = compile(kSumProgram, options_for(CheckMode::kBcc));
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.program->lower_stats().sw_checks, 2U);
  vm::RunResult run = compiled.program->run();
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.counters.sw_checks, 20U);
}

constexpr const char* kOverflowProgram = R"(
int buf[8];
int main() {
  int i;
  for (i = 0; i < 20; i = i + 1) {
    buf[i] = i;
  }
  return 0;
}
)";

TEST(Integration, CashCatchesOverflowViaSegmentLimit) {
  vm::RunResult run = compile_and_run(kOverflowProgram, CheckMode::kCash);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_TRUE(run.bound_violation());
  EXPECT_EQ(run.fault->kind, FaultKind::kGeneralProtection);
  // The first 8 stores are fine; the 9th (i == 8) must fault.
  EXPECT_EQ(run.counters.hw_checked_accesses, 9U);
}

TEST(Integration, BccCatchesOverflowViaSoftwareCheck) {
  vm::RunResult run = compile_and_run(kOverflowProgram, CheckMode::kBcc);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kBoundRange);
}

TEST(Integration, NoCheckMissesOverflow) {
  // The overflow scribbles past buf into adjacent memory but nothing stops
  // it — the vulnerable baseline.
  vm::RunResult run = compile_and_run(kOverflowProgram, CheckMode::kNoCheck);
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
}

TEST(Integration, CashIsCheaperThanBccOnLongLoops) {
  // Cash pays a fixed set-up (per-program 543 + per-array 263 cycles) but
  // nothing per reference; BCC pays 6 cycles per reference. With enough
  // iterations Cash must win — the paper's central claim.
  constexpr const char* kLongLoop = R"(
int a[1000];
int main() {
  int i;
  int round;
  int sum = 0;
  for (round = 0; round < 20; round = round + 1) {
    for (i = 0; i < 1000; i = i + 1) {
      a[i] = i;
    }
    for (i = 0; i < 1000; i = i + 1) {
      sum = sum + a[i];
    }
  }
  return sum;
}
)";
  vm::RunResult gcc = compile_and_run(kLongLoop, CheckMode::kNoCheck);
  vm::RunResult cash = compile_and_run(kLongLoop, CheckMode::kCash);
  vm::RunResult bcc = compile_and_run(kLongLoop, CheckMode::kBcc);
  ASSERT_TRUE(gcc.ok && cash.ok && bcc.ok);
  EXPECT_LT(gcc.cycles, bcc.cycles);
  EXPECT_LT(cash.cycles, bcc.cycles);
  // Cash overhead over GCC must be a small fraction of BCC's overhead.
  const double cash_over = static_cast<double>(cash.cycles - gcc.cycles);
  const double bcc_over = static_cast<double>(bcc.cycles - gcc.cycles);
  EXPECT_LT(cash_over, 0.05 * bcc_over)
      << "cash +" << cash_over << " vs bcc +" << bcc_over;
}

constexpr const char* kMallocProgram = R"(
int main() {
  int *p;
  int i;
  int sum = 0;
  p = malloc(40);
  for (i = 0; i < 10; i = i + 1) {
    p[i] = i + 1;
  }
  for (i = 0; i < 10; i = i + 1) {
    sum = sum + p[i];
  }
  free(p);
  print_int(sum);
  return sum;
}
)";

TEST(Integration, MallocArraysWork) {
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kBcc,
                         CheckMode::kCash, CheckMode::kEfence}) {
    vm::RunResult run = compile_and_run(kMallocProgram, mode);
    EXPECT_TRUE(run.ok) << to_string(mode) << ": "
                        << (run.fault ? run.fault->detail : run.error);
    EXPECT_EQ(run.exit_code, 55) << to_string(mode);
  }
}

constexpr const char* kHeapOverflowProgram = R"(
int main() {
  int *p;
  int i;
  p = malloc(32);
  for (i = 0; i <= 8; i = i + 1) {
    p[i] = 7;
  }
  return 0;
}
)";

TEST(Integration, HeapOverflowCaughtByCash) {
  vm::RunResult run = compile_and_run(kHeapOverflowProgram, CheckMode::kCash);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kGeneralProtection);
}

TEST(Integration, HeapOverflowCaughtByEfenceGuardPage) {
  vm::RunResult run =
      compile_and_run(kHeapOverflowProgram, CheckMode::kEfence);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kPageFault);
}

constexpr const char* kPointerWalkProgram = R"(
int data[16];
int main() {
  int *p;
  int i;
  int sum = 0;
  for (i = 0; i < 16; i = i + 1) {
    data[i] = i;
  }
  p = data;
  for (i = 0; i < 16; i = i + 1) {
    sum = sum + *p;
    p++;
  }
  print_int(sum);
  return sum;
}
)";

TEST(Integration, PointerWalkWithIncrement) {
  for (CheckMode mode :
       {CheckMode::kNoCheck, CheckMode::kBcc, CheckMode::kCash}) {
    vm::RunResult run = compile_and_run(kPointerWalkProgram, mode);
    EXPECT_TRUE(run.ok) << to_string(mode) << ": "
                        << (run.fault ? run.fault->detail : run.error);
    EXPECT_EQ(run.exit_code, 120) << to_string(mode);
  }
}

constexpr const char* kSpillProgram = R"(
int a[8]; int b[8]; int c[8]; int d[8]; int e[8];
int main() {
  int i;
  int sum = 0;
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i; b[i] = i; c[i] = i; d[i] = i; e[i] = i;
  }
  for (i = 0; i < 8; i = i + 1) {
    sum = sum + a[i] + b[i] + c[i] + d[i] + e[i];
  }
  return sum;
}
)";

TEST(Integration, MoreArraysThanSegRegsFallsBackToSoftware) {
  CompileResult compiled =
      compile(kSpillProgram, options_for(CheckMode::kCash, 3));
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const passes::LowerStats& stats = compiled.program->lower_stats();
  // 5 arrays per loop, 3 registers: d and e spill in both loops.
  EXPECT_EQ(stats.spilled_outer_loops, 2U);
  EXPECT_GT(stats.sw_checks, 0U);
  EXPECT_GT(stats.hw_checks, 0U);

  vm::RunResult run = compiled.program->run();
  ASSERT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  EXPECT_EQ(run.exit_code, 8 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) * 5 / 8);
}

TEST(Integration, FourSegRegsEliminateSpill) {
  CompileResult three =
      compile(kSpillProgram, options_for(CheckMode::kCash, 3));
  CompileResult four =
      compile(kSpillProgram, options_for(CheckMode::kCash, 4));
  ASSERT_TRUE(three.ok() && four.ok());
  EXPECT_LT(four.program->lower_stats().sw_checks,
            three.program->lower_stats().sw_checks);
  vm::RunResult run3 = three.program->run();
  vm::RunResult run4 = four.program->run();
  ASSERT_TRUE(run3.ok && run4.ok);
  EXPECT_EQ(run3.exit_code, run4.exit_code);
  EXPECT_LT(run4.counters.sw_checks, run3.counters.sw_checks);
}

TEST(Integration, CompileErrorsAreReported) {
  CompileResult bad = compile("int main() { return x; }");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("undeclared"), std::string::npos) << bad.error;
}

// Every array must fit its region together with its info block, so no
// byte size computed from a declaration can wrap in 32 bits. The first two
// programs used to run: a's size wrapped to 0, so the loop wrote into b and
// Cash missed it; the 4 GB local never reached the 64 MB stack limit.
TEST(Integration, ArraysThatCannotFitTheirRegionAreCompileErrors) {
  constexpr const char* kTooBig[] = {
      R"(int a[1073741824];
int b[4];
int main() {
  int i;
  for (i = 0; i < 8; i++) { a[i] = 5; }
  return b[0] + b[3];
})",
      R"(int f() { int a[1073741823]; a[0] = 1; return a[0]; }
int main() { return f(); })",
      // 64 MB of stack holds 16777213 words and the info block, no more.
      "int main() { int a[16777214]; a[0] = 1; return a[0]; }",
      // Each fits the 127 MB of globals below the heap, not both.
      "int a[20000000]; int b[20000000]; int main() { return 0; }",
      "int a[33292286]; int main() { return 0; }",
  };
  constexpr const char* kLargestThatFit[] = {
      "int main() { int a[16777213]; return 0; }",
      "int a[33292285]; int main() { return 0; }",
  };
  for (CheckMode mode :
       {CheckMode::kNoCheck, CheckMode::kBcc, CheckMode::kCash,
        CheckMode::kBoundInsn, CheckMode::kEfence, CheckMode::kShadow}) {
    for (const bool elide : {false, true}) {
      CompileOptions options = options_for(mode);
      options.lower.elide_checks = elide;
      for (const char* source : kTooBig) {
        const CompileResult r = compile(source, options);
        EXPECT_FALSE(r.ok()) << to_string(mode) << ": " << source;
        EXPECT_NE(r.error.find("does not fit"), std::string::npos) << r.error;
      }
      for (const char* source : kLargestThatFit) {
        EXPECT_TRUE(compile(source, options).ok())
            << to_string(mode) << ": " << source;
      }
    }
  }
}

TEST(Integration, FloatArithmetic) {
  constexpr const char* kFloatProgram = R"(
float v[4];
int main() {
  int i;
  float sum = 0.0;
  for (i = 0; i < 4; i = i + 1) {
    v[i] = 1.5;
  }
  for (i = 0; i < 4; i = i + 1) {
    sum = sum + v[i];
  }
  print_float(sum);
  return 0;
}
)";
  vm::RunResult run = compile_and_run(kFloatProgram, CheckMode::kCash);
  ASSERT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  EXPECT_EQ(run.output, "6\n");
}

} // namespace
} // namespace cash
