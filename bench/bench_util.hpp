#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "workloads/workloads.hpp"

// Shared helpers for the table-reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints the measured
// values next to the paper's, so shape deviations are visible at a glance.
//
// Grid cells ((workload x mode) pairs, sweep points, ...) are independent
// simulations, so the benches evaluate them through run_cells(), which
// shards them across host threads ($CASH_JOBS, default all cores) and
// returns results in cell order — the printed tables and every simulated
// number are bit-identical for any thread count (see DESIGN.md §7).
namespace cash::bench {

struct ModeResult {
  vm::RunResult run;
  passes::LowerStats stats;
  passes::CodeSize size;
};

inline ModeResult compile_and_run(const std::string& source,
                                  passes::CheckMode mode, int seg_regs = 3,
                                  bool execute = true) {
  CompileOptions options;
  options.lower.mode = mode;
  options.lower.num_seg_regs = seg_regs;
  CompileResult compiled = compile(source, options);
  if (!compiled.ok()) {
    throw std::runtime_error("compile failed: " + compiled.error);
  }
  ModeResult out;
  out.stats = compiled.program->lower_stats();
  out.size = compiled.program->code_size();
  if (execute) {
    out.run = compiled.program->run();
    if (!out.run.ok) {
      throw std::runtime_error(
          "run failed: " +
          (out.run.fault ? out.run.fault->detail : out.run.error));
    }
  }
  return out;
}

// Worker threads for this bench process: $CASH_JOBS, default all cores.
inline int bench_jobs() { return exec::resolve_jobs(); }

// Evaluates `n` independent grid cells with fn(index) across bench_jobs()
// threads and returns the results in index order.
template <typename Fn>
inline auto run_cells(std::size_t n, Fn&& fn) {
  return exec::parallel_map(n, bench_jobs(), fn);
}

inline double overhead_pct(double base, double measured) {
  return base == 0 ? 0 : (measured - base) / base * 100.0;
}

inline void print_title(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_note(const char* note) { std::printf("%s\n", note); }

// Honour CASH_BENCH_REQUESTS / CASH_BENCH_QUICK for time-constrained runs.
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

} // namespace cash::bench
