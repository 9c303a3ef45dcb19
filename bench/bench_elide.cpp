// Whole-program check-elision benchmark and differential gate.
//
// Section 1 (elision grid): the six micro kernels, each compiled under the
// four checked modes (bcc / cash / bound / shadow) twice — elision off and
// on (lower.elide_checks). Every cell asserts bit-identical program output
// and exit code, and records the simulated checking-cycle column plus the
// pass's own counters (checks deleted / hoisted / widened). The bench
// exits non-zero if any cell diverges, if elision ever *increases*
// checking cycles, or if fewer than four of the six kernels show a
// non-zero deleted+hoisted count under bcc or under cash — so the ctest
// smoke run doubles as the elision transparency + coverage gate.
//
// Section 2 (fault identity): a probe program whose helper is called once
// with a zero-trip count and once out of bounds. Baseline and elided
// compilations must both report a bound violation (the hoisted interval
// check may surface as #BR where the in-loop cash check was #GP — the gate
// is bound_violation(), not the fault kind) with identical output up to
// the fault.
//
// Section 3 (kill switch): $CASH_NO_ELIDE=1 with elide_checks on must
// reproduce the elision-off compilation bit for bit — cycles, counters,
// output — with all elision statistics zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/run_result_compare.hpp"

namespace {

using cash::passes::CheckMode;

const char* mode_name(CheckMode mode) {
  switch (mode) {
    case CheckMode::kNoCheck: return "gcc";
    case CheckMode::kBcc: return "bcc";
    case CheckMode::kCash: return "cash";
    case CheckMode::kBoundInsn: return "bound";
    case CheckMode::kEfence: return "efence";
    case CheckMode::kShadow: return "shadow";
  }
  return "?";
}

// The fault-identity probe: helper walks p[0..n-1]; main calls it once
// with n == 0 (the hoisted interval check must treat a zero-trip loop as
// an empty range and pass) and once with n == 101 on a 100-element array
// (both compilations must fault).
constexpr const char* kViolating = R"(
int a[100];
int helper(int* p, int n) {
  int acc;
  int i;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    acc = acc + p[i];
  }
  return acc;
}
int main() {
  int s;
  int i;
  for (i = 0; i < 100; i = i + 1) {
    a[i] = 1;
  }
  s = helper(a, 0);
  print_int(s);
  s = helper(a, 101);
  print_int(s);
  return 0;
}
)";

// One (kernel, mode) grid cell: the same source compiled and run with
// elision off and on.
struct ElideCell {
  cash::vm::RunResult base;
  cash::vm::RunResult elided;
  cash::passes::LowerStats base_stats;
  cash::passes::ElideStats stats;
  std::string error; // non-empty: compile or clean-run failure
};

ElideCell run_cell(const std::string& source, CheckMode mode) {
  ElideCell cell;
  for (bool elide : {false, true}) {
    cash::CompileOptions options;
    options.lower.mode = mode;
    options.lower.elide_checks = elide;
    cash::CompileResult compiled = cash::compile(source, options);
    if (!compiled.ok()) {
      cell.error = "compile failed: " + compiled.error;
      return cell;
    }
    cash::vm::RunResult run = compiled.program->run();
    if (!run.ok) {
      cell.error =
          "run failed: " + (run.fault ? run.fault->detail : run.error);
      return cell;
    }
    if (elide) {
      cell.elided = std::move(run);
      cell.stats = compiled.program->elide_stats();
    } else {
      cell.base = std::move(run);
      cell.base_stats = compiled.program->lower_stats();
    }
  }
  return cell;
}

// Full simulated-field equality of the results — the kill-switch gate,
// built on the shared comparator. Returns the first differing field, or
// empty.
std::string first_difference(const cash::vm::RunResult& a,
                             const cash::vm::RunResult& b) {
  return cash::vm::first_run_result_difference(a, b);
}

} // namespace

int main(int argc, char** argv) {
  using namespace cash;
  using namespace cash::bench;

  bool quick = env_int("CASH_BENCH_QUICK", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  print_title(quick ? "Whole-program check elision, on vs off (smoke)"
                    : "Whole-program check elision, on vs off");
  print_note("every cell asserts bit-identical program output; divergence,");
  print_note("a checking-cycle regression, or missing kernel coverage in");
  print_note("bcc/cash is a hard failure");

  // --- Section 1: six kernels x four checked modes, elision off vs on ----
  struct Kernel {
    const char* name;
    std::string source;
  };
  std::vector<Kernel> kernels;
  kernels.push_back({"matmul", workloads::matmul_source(quick ? 16 : 56)});
  kernels.push_back({"gauss", workloads::gauss_source(quick ? 16 : 56)});
  kernels.push_back({"fft2d", workloads::fft2d_source(quick ? 8 : 32)});
  kernels.push_back(
      {"edge", workloads::edge_source(quick ? 48 : 192, quick ? 32 : 128)});
  kernels.push_back({"volren", workloads::volren_source(quick ? 12 : 32,
                                                        quick ? 24 : 64)});
  kernels.push_back({"svd", workloads::svd_source(quick ? 16 : 48,
                                                  quick ? 12 : 32,
                                                  quick ? 3 : 8)});
  const std::vector<CheckMode> modes = {CheckMode::kBcc, CheckMode::kCash,
                                        CheckMode::kBoundInsn,
                                        CheckMode::kShadow};

  const std::vector<ElideCell> cells = run_cells(
      kernels.size() * modes.size(), [&](std::size_t index) {
        return run_cell(kernels[index / modes.size()].source,
                        modes[index % modes.size()]);
      });

  bool transparent = true;
  std::uint64_t total_base_checking = 0;
  std::uint64_t total_elided_checking = 0;
  std::uint64_t total_removed = 0;
  std::uint64_t total_static_checks = 0;
  int improved_bcc = 0;
  int improved_cash = 0;
  std::printf("\n%-8s %-7s %12s %12s %7s %5s %6s %6s %10s\n", "kernel",
              "mode", "base chk-cy", "elide chk-cy", "redux", "del", "hoist",
              "widen", "identical");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Kernel& k = kernels[i / modes.size()];
    const CheckMode mode = modes[i % modes.size()];
    const ElideCell& cell = cells[i];
    if (!cell.error.empty()) {
      std::fprintf(stderr, "%s/%s: %s\n", k.name, mode_name(mode),
                   cell.error.c_str());
      return 1;
    }
    std::string diff;
    if (cell.base.output != cell.elided.output) diff = "output";
    if (diff.empty() && cell.base.exit_code != cell.elided.exit_code)
      diff = "exit_code";
    if (!diff.empty()) {
      std::fprintf(stderr, "%s/%s: elision diverges on %s\n", k.name,
                   mode_name(mode), diff.c_str());
      transparent = false;
    }
    const std::uint64_t base_chk = cell.base.breakdown.checking;
    const std::uint64_t elided_chk = cell.elided.breakdown.checking;
    if (elided_chk > base_chk) {
      std::fprintf(stderr,
                   "%s/%s: elision increased checking cycles (%llu -> "
                   "%llu)\n",
                   k.name, mode_name(mode),
                   static_cast<unsigned long long>(base_chk),
                   static_cast<unsigned long long>(elided_chk));
      transparent = false;
    }
    total_base_checking += base_chk;
    total_elided_checking += elided_chk;
    total_removed += cell.stats.checks_removed();
    total_static_checks +=
        cell.base_stats.sw_checks + cell.base_stats.hw_checks;
    const bool improved =
        cell.stats.checks_deleted + cell.stats.checks_hoisted > 0;
    if (improved && mode == CheckMode::kBcc) ++improved_bcc;
    if (improved && mode == CheckMode::kCash) ++improved_cash;
    std::printf(
        "%-8s %-7s %12llu %12llu %6.1f%% %5llu %6llu %6llu %10s\n", k.name,
        mode_name(mode), static_cast<unsigned long long>(base_chk),
        static_cast<unsigned long long>(elided_chk),
        base_chk > 0
            ? 100.0 * (1.0 - static_cast<double>(elided_chk) /
                                 static_cast<double>(base_chk))
            : 0.0,
        static_cast<unsigned long long>(cell.stats.checks_deleted),
        static_cast<unsigned long long>(cell.stats.checks_hoisted),
        static_cast<unsigned long long>(cell.stats.checks_widened),
        diff.empty() ? "yes" : "NO");
  }
  const double cycle_reduction =
      total_base_checking > 0
          ? 1.0 - static_cast<double>(total_elided_checking) /
                      static_cast<double>(total_base_checking)
          : 0.0;
  std::printf("%-8s %-7s %12llu %12llu %6.1f%%   (removed %llu of %llu "
              "static checks)\n",
              "total", "-",
              static_cast<unsigned long long>(total_base_checking),
              static_cast<unsigned long long>(total_elided_checking),
              cycle_reduction * 100.0,
              static_cast<unsigned long long>(total_removed),
              static_cast<unsigned long long>(total_static_checks));
  std::printf("kernels with deleted+hoisted > 0: bcc %d/%zu, cash %d/%zu\n",
              improved_bcc, kernels.size(), improved_cash, kernels.size());

  // --- Section 2: fault identity on a violating probe --------------------
  bool faults_identical = true;
  std::printf("\n%-7s %-14s %-14s %s\n", "mode", "base fault", "elide fault",
              "output-identical");
  for (CheckMode mode : modes) {
    vm::RunResult base;
    vm::RunResult elided;
    for (bool elide : {false, true}) {
      CompileOptions options;
      options.lower.mode = mode;
      options.lower.elide_checks = elide;
      CompileResult compiled = compile(kViolating, options);
      if (!compiled.ok()) {
        std::fprintf(stderr, "probe compile failed (%s): %s\n",
                     mode_name(mode), compiled.error.c_str());
        return 1;
      }
      (elide ? elided : base) = compiled.program->run();
    }
    const bool both = base.bound_violation() && elided.bound_violation();
    const bool same_output = base.output == elided.output;
    if (!both || !same_output) {
      std::fprintf(stderr, "%s: fault identity broken on the probe\n",
                   mode_name(mode));
      faults_identical = false;
    }
    std::printf("%-7s %-14s %-14s %s\n", mode_name(mode),
                base.bound_violation() ? "violation" : "MISSED",
                elided.bound_violation() ? "violation" : "MISSED",
                same_output ? "yes" : "NO");
  }

  // --- Section 3: $CASH_NO_ELIDE restores the baseline bit for bit -------
  bool kill_switch_ok = true;
  std::printf("\nkill switch ($CASH_NO_ELIDE=1 with elide_checks on):\n");
  for (CheckMode mode : {CheckMode::kBcc, CheckMode::kCash}) {
    setenv("CASH_NO_ELIDE", "1", 1);
    CompileOptions options;
    options.lower.mode = mode;
    options.lower.elide_checks = true;
    CompileResult killed = compile(kernels[0].source, options);
    unsetenv("CASH_NO_ELIDE");
    options.lower.elide_checks = false;
    CompileResult off = compile(kernels[0].source, options);
    if (!killed.ok() || !off.ok()) {
      std::fprintf(stderr, "kill-switch compile failed (%s)\n",
                   mode_name(mode));
      return 1;
    }
    const std::string diff =
        first_difference(killed.program->run(), off.program->run());
    const bool stats_zero =
        killed.program->elide_stats().checks_removed() == 0;
    if (!diff.empty() || !stats_zero) {
      std::fprintf(stderr, "%s: kill switch not transparent (%s)\n",
                   mode_name(mode),
                   diff.empty() ? "non-zero elide stats" : diff.c_str());
      kill_switch_ok = false;
    }
    std::printf("  %-7s %s\n", mode_name(mode),
                diff.empty() && stats_zero ? "bit-identical to elision off"
                                           : "NOT TRANSPARENT");
  }

  if (!transparent) {
    std::fprintf(stderr,
                 "FAIL: elision changed program output or regressed "
                 "checking cycles\n");
    return 1;
  }
  if (!faults_identical) {
    std::fprintf(stderr,
                 "FAIL: elided compilation missed a bound violation\n");
    return 1;
  }
  if (!kill_switch_ok) {
    std::fprintf(stderr, "FAIL: $CASH_NO_ELIDE did not restore baseline\n");
    return 1;
  }
  if (improved_bcc < 4 || improved_cash < 4) {
    std::fprintf(stderr,
                 "FAIL: elision improved only %d (bcc) / %d (cash) of %zu "
                 "kernels\n",
                 improved_bcc, improved_cash, kernels.size());
    return 1;
  }
  if (total_removed == 0 || total_elided_checking >= total_base_checking) {
    std::fprintf(stderr, "FAIL: elision removed no checking work\n");
    return 1;
  }
  return 0;
}
