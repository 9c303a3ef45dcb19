// The compiler passes keep their tables in per-thread scratch (DESIGN.md §7).
// Compiling on several host threads at once must build exactly what a
// serial compile builds; under ThreadSanitizer this also shows that no
// scratch is shared between threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "ir/printer.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

using passes::CheckMode;

struct Cell {
  const workloads::Workload* workload;
  CompileOptions options;
};

// The 18 workloads under gcc, bcc, cash and cash with check elision.
std::vector<Cell> make_cells() {
  struct Config {
    CheckMode mode;
    bool elide;
  };
  constexpr Config kConfigs[] = {{CheckMode::kNoCheck, false},
                                 {CheckMode::kBcc, false},
                                 {CheckMode::kCash, false},
                                 {CheckMode::kCash, true}};
  std::vector<Cell> cells;
  for (const auto* suite : {&workloads::micro_suite(),
                            &workloads::macro_suite(),
                            &workloads::network_suite()}) {
    for (const workloads::Workload& w : *suite) {
      for (const Config& config : kConfigs) {
        Cell c{&w, {}};
        c.options.lower.mode = config.mode;
        c.options.lower.elide_checks = config.elide;
        cells.push_back(c);
      }
    }
  }
  return cells;
}

// The lowered IR text, or the compile error.
std::string compiled_text(const Cell& c) {
  CompileResult r = compile(c.workload->source, c.options);
  return r.ok() ? ir::to_text(r.program->module()) : "error: " + r.error;
}

TEST(CompileThreads, FourThreadsMatchSerialCompile) {
  const std::vector<Cell> cells = make_cells();
  ASSERT_EQ(cells.size(), 72U);
  std::vector<std::string> serial;
  for (const Cell& c : cells) {
    serial.push_back(compiled_text(c));
  }
  // Each of the 4 workers compiles a run of 18 cells, so all but its first
  // compile reuse the scratch an earlier one grew.
  const std::vector<std::string> parallel = exec::parallel_map(
      cells.size(), 4, [&](std::size_t i) { return compiled_text(cells[i]); });
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i])
        << cells[i].workload->name << " (cell " << i << ")";
  }
}

} // namespace
} // namespace cash
