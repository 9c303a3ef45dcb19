// Regression guard for the host-side fast paths (software TLB, segment
// fast path, call-resolution cache): the simulated machine must be
// bit-identical with the TLB on and off, in every check mode, for both
// clean runs and faulting runs. The TLB is a host optimization only — if
// any simulated cycle, counter, or fault leaks from it, these tests fail.
#include <gtest/gtest.h>

#include "core/cash.hpp"
#include "vm/machine.hpp"
#include "workloads/workloads.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;

constexpr CheckMode kAllModes[] = {CheckMode::kNoCheck,   CheckMode::kBcc,
                                   CheckMode::kCash,      CheckMode::kBoundInsn,
                                   CheckMode::kEfence,    CheckMode::kShadow};

vm::RunResult run_with_tlb(const CompiledProgram& program, CheckMode mode,
                           bool enable_tlb) {
  vm::MachineConfig cfg = program.options().machine;
  cfg.mode = mode;
  cfg.enable_tlb = enable_tlb;
  vm::Machine machine(program.module(), cfg);
  return machine.run();
}

// Every simulated field must match, and the off run must genuinely have
// bypassed the TLB.
void expect_identical(const vm::RunResult& on, const vm::RunResult& off,
                      CheckMode mode) {
  const char* m = to_string(mode);
  vm::expect_identical(on, off, m);
  EXPECT_EQ(off.tlb_stats.hits, 0U) << m;
  EXPECT_EQ(off.tlb_stats.misses, 0U) << m;
}

TEST(Determinism, AllModesIdenticalWithTlbOnAndOff) {
  const std::string source = workloads::matmul_source(12);
  for (CheckMode mode : kAllModes) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult compiled = compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const vm::RunResult on = run_with_tlb(*compiled.program, mode, true);
    const vm::RunResult off = run_with_tlb(*compiled.program, mode, false);
    EXPECT_TRUE(on.ok) << to_string(mode);
    expect_identical(on, off, mode);
  }
}

TEST(Determinism, ArraySweepIdenticalWithTlbOnAndOff) {
  // A read-modify-write sweep over a global array: almost every retired
  // instruction is an array access, the exact traffic the TLB caches.
  constexpr const char* kSweep = R"(
int a[256];
int main() {
  int i; int it; int s;
  s = 0;
  for (it = 0; it < 40; it++) {
    for (i = 0; i < 256; i++) {
      a[i] = a[i] + it;
    }
    s = s + a[it % 256];
  }
  print_int(s);
  return 0;
}
)";
  for (CheckMode mode :
       {CheckMode::kNoCheck, CheckMode::kCash, CheckMode::kBcc}) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult compiled = compile(kSweep, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const vm::RunResult on = run_with_tlb(*compiled.program, mode, true);
    const vm::RunResult off = run_with_tlb(*compiled.program, mode, false);
    EXPECT_TRUE(on.ok) << to_string(mode);
    EXPECT_GT(on.tlb_stats.hits, 0U) << to_string(mode);
    expect_identical(on, off, mode);
  }
}

TEST(Determinism, EfenceOverflowFaultsIdenticallyWithTlbOnAndOff) {
  // The guard-page #PF that implements Electric-Fence bound detection must
  // fire at exactly the same point whether or not the page was TLB-cached.
  constexpr const char* kOverflow = R"(
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
  CompileOptions options;
  options.lower.mode = CheckMode::kEfence;
  CompileResult compiled = compile(kOverflow, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult on =
      run_with_tlb(*compiled.program, CheckMode::kEfence, true);
  const vm::RunResult off =
      run_with_tlb(*compiled.program, CheckMode::kEfence, false);
  EXPECT_FALSE(on.ok);
  ASSERT_TRUE(on.fault.has_value());
  EXPECT_EQ(on.fault->kind, FaultKind::kPageFault);
  expect_identical(on, off, CheckMode::kEfence);
}

TEST(Determinism, CashOverflowFaultsIdenticallyWithTlbOnAndOff) {
  // A segment-limit violation (the Cash check itself) with the fast path
  // active: the #GP and every counter must match the TLB-off run.
  constexpr const char* kOverflow = R"(
int a[8];
int main() {
  int i;
  for (i = 0; i <= 8; i = i + 1) {
    a[i] = 7;
  }
  return 0;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kOverflow, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult on =
      run_with_tlb(*compiled.program, CheckMode::kCash, true);
  const vm::RunResult off =
      run_with_tlb(*compiled.program, CheckMode::kCash, false);
  EXPECT_FALSE(on.ok);
  ASSERT_TRUE(on.fault.has_value());
  expect_identical(on, off, CheckMode::kCash);
}

} // namespace
} // namespace cash
