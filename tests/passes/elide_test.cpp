// Whole-program check elision (passes/elide.cpp): per-pattern tests
// asserting via the IR printer that exactly the expected checks remain
// after lowering, negative cases proving the pass leaves unsafe patterns
// alone, a grid over the micro kernels proving elision keeps their output
// and cuts their checking cycles, and a seeded-violation sweep proving
// elided compilations catch every bound violation the baseline catches.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/cash.hpp"
#include "ir/printer.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

using passes::CheckMode;

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// One function's section of the printed module, so per-pattern assertions
// are not polluted by checks elsewhere (e.g. main's set-up loops).
std::string function_text(const std::string& module_text,
                          const std::string& name) {
  const std::string tag = "func " + name + "(";
  const std::size_t begin = module_text.find(tag);
  if (begin == std::string::npos) {
    return {};
  }
  const std::size_t end = module_text.find("\nfunc ", begin);
  return end == std::string::npos ? module_text.substr(begin)
                                  : module_text.substr(begin, end - begin);
}

struct Compiled {
  std::string text; // lowered module, printer form
  passes::ElideStats stats;
  std::unique_ptr<CompiledProgram> program;
};

Compiled compile_elided(const std::string& source,
                        CheckMode mode = CheckMode::kBcc,
                        bool optimize = true) {
  CompileOptions options;
  options.lower.mode = mode;
  options.lower.elide_checks = true;
  options.optimize = optimize;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  Compiled out;
  if (compiled.ok()) {
    out.text = ir::to_text(compiled.program->module());
    out.stats = compiled.program->elide_stats();
    out.program = std::move(compiled.program);
  }
  return out;
}

// --- phase (a): accesses proven in-bounds ----------------------------------

TEST(ElideDelete, ConstantRangeLoopAccessesAreDeleted) {
  // Constant trip count over a constant-size array: every access is provably
  // inside [0, 4n), so lowering emits no instrumentation at all.
  const Compiled c = compile_elided(R"(
    int a[16];
    int main() {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 16; i = i + 1) {
        s = s + a[i];
      }
      print_int(s);
      return 0;
    }
  )");
  EXPECT_EQ(count_occurrences(c.text, "boundcheck."), 0) << c.text;
  EXPECT_GE(c.stats.checks_deleted, 1u);
  EXPECT_EQ(c.stats.checks_hoisted, 0u);
}

// --- phase (a'): dominated duplicates --------------------------------------

TEST(ElideDelete, DominatedDuplicateCheckIsDeleted) {
  // The same fixed element checked twice with no call in between: the
  // second check is covered by the first. (The offset is out of range so
  // phase (a)'s in-bounds proof cannot fire first; at run time the first
  // check faults before the second access executes, which is exactly why
  // deleting the dominated duplicate is sound.)
  const Compiled c = compile_elided(R"(
    int a[8];
    int main() {
      int x;
      x = a[9];
      a[9] = x + 1;
      return 0;
    }
  )");
  EXPECT_EQ(count_occurrences(c.text, "boundcheck.sw"), 1) << c.text;
  EXPECT_EQ(count_occurrences(c.text, "!elided"), 1) << c.text;
  EXPECT_EQ(c.stats.checks_deleted, 1u);
}

TEST(ElideDelete, CallBetweenChecksBlocksTheDuplicate) {
  // Negative: a call between the two accesses may mutate bounds state, so
  // the dominated-duplicate rule must not fire across it.
  const Compiled c = compile_elided(R"(
    int a[8];
    int poke() {
      return 1;
    }
    int main() {
      int x;
      x = a[9];
      x = x + poke();
      a[9] = x;
      return 0;
    }
  )",
                                    CheckMode::kBcc, false);
  EXPECT_EQ(count_occurrences(c.text, "boundcheck.sw"), 2) << c.text;
  EXPECT_EQ(c.stats.checks_deleted, 0u);
}

// --- phase (b): monotone-loop hoisting -------------------------------------

TEST(ElideHoist, UpwardCountedLoopHoistsToOneIntervalCheck) {
  // Runtime bound, so the in-bounds proof cannot fire; the per-iteration
  // check collapses to one preheader interval check (a boundcheck with two
  // operands) and the body access is marked !elided.
  const Compiled c = compile_elided(R"(
    int a[16];
    int sum(int n) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        s = s + a[i];
      }
      return s;
    }
    int main() {
      int i;
      for (i = 0; i < 16; i = i + 1) {
        a[i] = i;
      }
      print_int(sum(16));
      return 0;
    }
  )");
  const std::string sum = function_text(c.text, "sum");
  EXPECT_EQ(c.stats.checks_hoisted, 1u) << c.text;
  EXPECT_EQ(c.stats.hoist_checks_inserted, 1u);
  EXPECT_EQ(count_occurrences(sum, "boundcheck.sw"), 1) << sum;
  EXPECT_EQ(count_occurrences(sum, "!elided"), 1) << sum;
  // main's constant-range set-up loop is phase (a) fodder.
  EXPECT_EQ(count_occurrences(function_text(c.text, "main"), "boundcheck."),
            0);
  ASSERT_TRUE(c.program != nullptr);
  const vm::RunResult run = c.program->run();
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  EXPECT_EQ(run.output, "120\n");
}

TEST(ElideHoist, DownwardCountedLoopHoistsToOneIntervalCheck) {
  const Compiled c = compile_elided(R"(
    int a[16];
    int sumdown(int n) {
      int i;
      int s;
      s = 0;
      for (i = n - 1; i >= 0; i = i - 1) {
        s = s + a[i];
      }
      return s;
    }
    int main() {
      int i;
      for (i = 0; i < 16; i = i + 1) {
        a[i] = i;
      }
      print_int(sumdown(16));
      return 0;
    }
  )");
  const std::string sumdown = function_text(c.text, "sumdown");
  EXPECT_EQ(c.stats.checks_hoisted, 1u) << c.text;
  EXPECT_EQ(c.stats.hoist_checks_inserted, 1u);
  EXPECT_EQ(count_occurrences(sumdown, "boundcheck.sw"), 1) << sumdown;
  ASSERT_TRUE(c.program != nullptr);
  const vm::RunResult run = c.program->run();
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  EXPECT_EQ(run.output, "120\n");
}

TEST(ElideHoist, EarlyExitLoopIsNotHoisted) {
  // Negative: the loop can return before reaching the extremal index, so a
  // preheader check of the far end could fault on a run the baseline
  // completes. The per-iteration check must stay.
  const Compiled c = compile_elided(R"(
    int find(int *p, int n) {
      int i;
      for (i = 0; i < n; i = i + 1) {
        if (p[i] == 7) {
          return i;
        }
      }
      return 0 - 1;
    }
    int b[16];
    int main() {
      b[5] = 7;
      print_int(find(b, 16));
      return 0;
    }
  )");
  EXPECT_EQ(c.stats.checks_hoisted, 0u) << c.text;
  EXPECT_GE(count_occurrences(c.text, "boundcheck.sw"), 1) << c.text;
}

TEST(ElideHoist, NonAffineIndexIsNotTouched) {
  // Negative: i*i is not an affine function of the induction variable, so
  // neither the in-bounds proof nor hoisting may fire.
  const Compiled c = compile_elided(R"(
    int a[128];
    int squares(int n) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        s = s + a[i * i];
      }
      return s;
    }
    int main() {
      print_int(squares(11));
      return 0;
    }
  )");
  EXPECT_EQ(c.stats.checks_removed(), 0u) << c.text;
  EXPECT_GE(count_occurrences(c.text, "boundcheck.sw"), 1) << c.text;
}

// --- phase (c): block widening ---------------------------------------------

TEST(ElideWiden, ConsecutiveAccessesMergeIntoOneIntervalCheck) {
  // p[j], p[j+1], p[j+2] in one block against a pointer parameter: no
  // static extent, but the three checks widen into a single interval
  // check spanning [p+4j, p+4j+8].
  const Compiled c = compile_elided(R"(
    int smooth(int *p, int j) {
      return p[j] + p[j + 1] + p[j + 2];
    }
    int b[16];
    int main() {
      int i;
      for (i = 0; i < 16; i = i + 1) {
        b[i] = i;
      }
      print_int(smooth(b, 4));
      return 0;
    }
  )");
  const std::string smooth = function_text(c.text, "smooth");
  EXPECT_EQ(c.stats.checks_widened, 3u) << c.text;
  EXPECT_EQ(c.stats.widen_checks_inserted, 1u);
  EXPECT_EQ(count_occurrences(smooth, "boundcheck.sw"), 1) << smooth;
  EXPECT_EQ(count_occurrences(smooth, "!elided"), 3) << smooth;
  ASSERT_TRUE(c.program != nullptr);
  const vm::RunResult run = c.program->run();
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  EXPECT_EQ(run.output, "15\n");
}

// --- the kernel grid: elision on the six micro kernels --------------------

TEST(ElideKernelGrid, KeepsOutputAndCutsCheckingOnMostKernels) {
  // The six micro kernels at small sizes under the four checked modes, each
  // compiled with elision off and on. Every pair gives the same output and
  // exit code, and elision never adds checking cycles. Under bcc and under
  // cash, at least four of the six kernels have checks deleted or hoisted.
  // The full-size grid is the elision table of bench/paper_expected.txt.
  const std::pair<const char*, std::string> kernels[] = {
      {"matmul", workloads::matmul_source(16)},
      {"gauss", workloads::gauss_source(16)},
      {"fft2d", workloads::fft2d_source(8)},
      {"edge", workloads::edge_source(48, 32)},
      {"volren", workloads::volren_source(12, 24)},
      {"svd", workloads::svd_source(16, 12, 3)},
  };
  std::uint64_t base_checking = 0;
  std::uint64_t elided_checking = 0;
  std::uint64_t removed = 0;
  int improved_bcc = 0;
  int improved_cash = 0;
  for (const auto& [name, source] : kernels) {
    for (CheckMode mode : {CheckMode::kBcc, CheckMode::kCash,
                           CheckMode::kBoundInsn, CheckMode::kShadow}) {
      const std::string what = std::string(name) + " " + to_string(mode);
      vm::RunResult runs[2];
      for (bool elide : {false, true}) {
        CompileOptions options;
        options.lower.mode = mode;
        options.lower.elide_checks = elide;
        CompileResult compiled = compile(source, options);
        ASSERT_TRUE(compiled.ok()) << what << ": " << compiled.error;
        runs[elide] = compiled.program->run();
        ASSERT_TRUE(runs[elide].ok) << what << ": " << runs[elide].error;
      }
      const vm::RunResult& base = runs[0];
      const vm::RunResult& elided = runs[1];
      EXPECT_EQ(elided.output, base.output) << what;
      EXPECT_EQ(elided.exit_code, base.exit_code) << what;
      EXPECT_LE(elided.breakdown.checking, base.breakdown.checking) << what;
      base_checking += base.breakdown.checking;
      elided_checking += elided.breakdown.checking;
      removed += elided.elide_stats.checks_removed();
      if (elided.elide_stats.checks_deleted +
              elided.elide_stats.checks_hoisted > 0) {
        improved_bcc += mode == CheckMode::kBcc;
        improved_cash += mode == CheckMode::kCash;
      }
    }
  }
  EXPECT_GE(improved_bcc, 4);
  EXPECT_GE(improved_cash, 4);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(elided_checking, base_checking);
}

// --- fault identity: elided runs catch every seeded violation --------------

struct Violation {
  const char* name;
  const char* source;
  // Cash checks only in-loop references, so its baseline catches the loop
  // cases and may miss a straight-line violation.
  bool cash_catches;
};

const Violation kViolations[] = {
    {"loop_overrun_up", workloads::kOverrunProbe, true},
    {"loop_overrun_down", R"(
      int a[100];
      int walkdown(int *p, int n) {
        int i;
        int s;
        s = 0;
        for (i = n; i >= 0; i = i - 1) {
          s = s + p[i];
        }
        return s;
      }
      int main() {
        print_int(walkdown(a, 100));
        return 0;
      }
    )", true},
    {"direct_oob_store", R"(
      int a[8];
      int main() {
        int x;
        x = a[9];
        a[9] = x;
        return 0;
      }
    )", false},
    {"widened_group_oob", R"(
      int smooth(int *p, int j) {
        return p[j] + p[j + 1] + p[j + 2];
      }
      int b[16];
      int main() {
        print_int(smooth(b, 14));
        return 0;
      }
    )", false},
};

class ElideFaultIdentity : public testing::TestWithParam<int> {};

TEST_P(ElideFaultIdentity, ElidedRunCatchesEverySeededViolation) {
  const Violation& v = kViolations[GetParam()];
  for (CheckMode mode : {CheckMode::kBcc, CheckMode::kCash,
                         CheckMode::kBoundInsn, CheckMode::kShadow}) {
    vm::RunResult base;
    vm::RunResult elided;
    for (bool elide : {false, true}) {
      CompileOptions options;
      options.lower.mode = mode;
      options.lower.elide_checks = elide;
      CompileResult compiled = compile(v.source, options);
      ASSERT_TRUE(compiled.ok())
          << v.name << " mode " << to_string(mode) << ": " << compiled.error;
      (elide ? elided : base) = compiled.program->run();
    }
    // The hoisted/widened interval check may fire earlier (and, under
    // cash, as #BR instead of #GP on a spilled array), so the gate is
    // bound_violation() plus output-so-far identity — not fault equality.
    // The invariant is that elision never loses a violation the baseline
    // catches.
    if (mode != CheckMode::kCash || v.cash_catches) {
      EXPECT_TRUE(base.bound_violation())
          << v.name << " mode " << to_string(mode) << " baseline missed it";
    }
    EXPECT_TRUE(!base.bound_violation() || elided.bound_violation())
        << v.name << " mode " << to_string(mode) << " elision missed it";
    EXPECT_EQ(base.output, elided.output)
        << v.name << " mode " << to_string(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, ElideFaultIdentity,
                         testing::Range(0, 4));

} // namespace
} // namespace cash
