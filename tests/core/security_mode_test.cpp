// Section 3.8's security-only mode: skipping read checks halves the
// resource pressure but must still stop every write overflow (all known
// buffer-overflow attacks write). These tests pin the asymmetry down.
#include <gtest/gtest.h>

#include "core/cash.hpp"

namespace cash {
namespace {

using passes::CheckMode;

vm::RunResult run_security(const std::string& source, bool check_reads) {
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  options.lower.check_reads = check_reads;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return compiled.program->run();
}

constexpr const char* kWriteOverflow = R"(
int buf[8];
int main() {
  int i;
  for (i = 0; i < 12; i++) {
    buf[i] = i;
  }
  return 0;
}
)";

constexpr const char* kReadOverflow = R"(
int buf[8];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 12; i++) {
    s = s + buf[i];
  }
  return s;
}
)";

TEST(SecurityMode, WriteOverflowCaughtEitherWay) {
  for (bool check_reads : {true, false}) {
    const vm::RunResult r = run_security(kWriteOverflow, check_reads);
    EXPECT_FALSE(r.ok) << "check_reads=" << check_reads;
    ASSERT_TRUE(r.fault.has_value());
    EXPECT_TRUE(r.bound_violation());
  }
}

TEST(SecurityMode, ReadOverflowOnlyCaughtWithReadChecks) {
  const vm::RunResult full = run_security(kReadOverflow, true);
  EXPECT_FALSE(full.ok);
  EXPECT_TRUE(full.fault.has_value());

  const vm::RunResult security = run_security(kReadOverflow, false);
  // The documented §3.8 trade-off: reads go unchecked.
  EXPECT_TRUE(security.ok)
      << (security.fault ? security.fault->detail : security.error);
}

TEST(SecurityMode, NeverCostsMoreThanFullChecking) {
  constexpr const char* kMixed = R"(
int a[32]; int b[32]; int c[32]; int d[32];
int main() {
  int i; int s = 0;
  for (i = 0; i < 32; i++) {
    d[i] = a[i] + b[i] + c[i];
  }
  for (i = 0; i < 32; i++) {
    s = s + d[i];
  }
  return s;
}
)";
  const vm::RunResult full = run_security(kMixed, true);
  const vm::RunResult security = run_security(kMixed, false);
  ASSERT_TRUE(full.ok && security.ok);
  EXPECT_EQ(full.exit_code, security.exit_code);
  EXPECT_LE(security.cycles, full.cycles);
  EXPECT_LE(security.counters.sw_checks, full.counters.sw_checks);
  EXPECT_LE(security.counters.seg_reg_loads, full.counters.seg_reg_loads);
}

TEST(SecurityMode, BccAlsoSupportsWriteOnlyChecking) {
  CompileOptions options;
  options.lower.mode = CheckMode::kBcc;
  options.lower.check_reads = false;
  CompileResult compiled = compile(kReadOverflow, options);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled.program->run().ok);

  CompileResult writes = compile(kWriteOverflow, options);
  ASSERT_TRUE(writes.ok());
  EXPECT_FALSE(writes.program->run().ok);
}

TEST(Vm, RunawayRecursionReportsStackOverflow) {
  // The first program runs out of simulated stack for its local arrays;
  // the second has none and reaches the call-depth limit instead. Both
  // engines must stop at the same instruction with the same error.
  constexpr const char* kPrograms[] = {R"(
int dive(int n) {
  int pad[256];
  pad[0] = n;
  return dive(n + 1) + pad[0];
}
int main() { return dive(0); }
)",
                                       R"(
int f(int n) { return f(n + 1) + 1; }
int main() { return f(0); }
)"};
  for (const char* source : kPrograms) {
    CompileOptions options;
    options.lower.mode = CheckMode::kNoCheck;
    CompileResult compiled = compile(source, options);
    ASSERT_TRUE(compiled.ok());
    vm::MachineConfig interp_cfg = compiled.program->options().machine;
    interp_cfg.enable_predecode = false;
    const vm::RunResult interp =
        compiled.program->make_machine(interp_cfg)->run();
    const vm::RunResult decoded = compiled.program->run();
    EXPECT_FALSE(interp.ok);
    EXPECT_NE(interp.error.find("stack overflow calling"), std::string::npos)
        << interp.error;
    EXPECT_EQ(decoded.error, interp.error);
    EXPECT_EQ(decoded.counters.instructions, interp.counters.instructions);
  }
}

} // namespace
} // namespace cash
