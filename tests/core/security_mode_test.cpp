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

TEST(Vm, WideFramesOverflowTheStackByBytes) {
  // Each frame of f holds 4,000 int locals (64 KB of registers and slots)
  // and no array, so the call-depth limit alone would let 100,000 frames
  // take gigabytes of host memory. The frames' bytes are bounded by the
  // simulated stack's size instead: both engines stop with a stack
  // overflow, at the same instruction.
  std::string source = "int f(int n) {\n";
  for (int i = 0; i < 4000; ++i) {
    source += "  int v" + std::to_string(i) + ";\n";
  }
  source += R"(  v0 = n;
  if (n == 0) { return 0; }
  return f(n - 1) + v0;
}
int main() { print_int(f(100000)); return 0; }
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kNoCheck;
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::RunResult results[2];
  for (const bool predecode : {false, true}) {
    vm::MachineConfig config = compiled.program->options().machine;
    config.enable_predecode = predecode;
    results[predecode] = compiled.program->make_machine(config)->run();
    EXPECT_FALSE(results[predecode].ok);
    EXPECT_EQ(results[predecode].error, "stack overflow calling f");
  }
  EXPECT_EQ(results[0].counters.instructions,
            results[1].counters.instructions);
}

TEST(Vm, EarlyEndedRunsUnwindTheirFrames) {
  // A run that ends inside calls leaves its frames live: here on a stack
  // overflow after thousands of frames, each holding a segment for its
  // local array, and on a bound fault inside a callee. Once the result is
  // final the machine undoes them, so every later run on the same machine
  // ends the same way and the segments come back.
  constexpr const char* kPrograms[] = {R"(
int dive(int n) {
  int pad[256];
  pad[0] = n;
  return dive(n + 1) + pad[0];
}
int main() { return dive(0); }
)",
                                       R"(
int walk(int n) {
  int a[8];
  int i;
  for (i = 0; i <= n; i++) {
    a[i] = i;
  }
  return a[0];
}
int main() { return walk(3) + walk(20); }
)"};
  for (const char* source : kPrograms) {
    CompileOptions options;
    options.lower.mode = CheckMode::kCash;
    CompileResult compiled = compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    for (bool predecode : {false, true}) {
      SCOPED_TRACE(predecode ? "decoded engine" : "interpreter");
      vm::MachineConfig cfg = compiled.program->options().machine;
      cfg.enable_predecode = predecode;
      std::unique_ptr<vm::Machine> machine =
          compiled.program->make_machine(cfg);
      machine->prepare();
      const std::uint64_t in_use =
          machine->segment_manager().stats().segments_in_use;
      const vm::RunResult first = machine->run();
      EXPECT_FALSE(first.ok);
      EXPECT_TRUE(first.fault.has_value() || !first.error.empty());
      EXPECT_GT(first.counters.instructions, 100U);
      for (int run = 0; run < 3; ++run) {
        const vm::RunResult again = run == 0 ? first : machine->run();
        EXPECT_EQ(again.error, first.error) << "run " << run;
        EXPECT_EQ(again.fault.has_value(), first.fault.has_value());
        if (again.fault.has_value() && first.fault.has_value()) {
          EXPECT_EQ(again.fault->kind, first.fault->kind);
        }
        EXPECT_EQ(again.counters.instructions, first.counters.instructions)
            << "run " << run;
        EXPECT_EQ(machine->segment_manager().stats().segments_in_use, in_use)
            << "run " << run;
      }
    }
  }
}

} // namespace
} // namespace cash
