// Heap-allocation ceiling for compile(). This executable replaces the global
// operator new with a counting one that forwards to malloc, so it must stay
// a test binary of its own.
//
// The compiler passes keep their tables in per-thread scratch that is
// reused across calls (DESIGN.md §7), so once one compile of each cell has
// warmed that scratch, a compile allocates little more than the AST, the
// optimizer's per-call tables and the IR and decoded image it returns. The
// ceiling below pins that; the verifier, which builds nothing, must not
// allocate at all on a valid module.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/cash.hpp"
#include "frontend/irgen.hpp"
#include "ir/verifier.hpp"
#include "passes/optimize.hpp"
#include "workloads/workloads.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cash {
namespace {

using passes::CheckMode;

// Before the passes kept per-thread scratch, compile() averaged 1,567 heap
// allocations over these 72 cells, and 693 before the AST moved into an
// arena and call sites out of ir::Instr. Now it makes about 333, most of
// them the IR the program keeps. The ceiling is that figure plus 10%.
constexpr double kMaxMeanAllocations = 366.0;

struct Cell {
  const workloads::Workload* workload;
  CompileOptions options;
};

// The 18 workloads under gcc, bcc, cash and cash with check elision: the
// same cells as the perfbench `compile` workload.
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

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(CompileAllocations, MeanPerCompileStaysUnderCeiling) {
  const std::vector<Cell> cells = make_cells();
  ASSERT_EQ(cells.size(), 72U);
  // The first pass warms each thread's pass scratch; the second is counted.
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t before = allocations();
    for (const Cell& c : cells) {
      CompileResult r = compile(c.workload->source, c.options);
      ASSERT_TRUE(r.ok()) << c.workload->name << ": " << r.error;
    }
    const double mean = static_cast<double>(allocations() - before) /
                        static_cast<double>(cells.size());
    if (pass == 1) {
      std::printf("mean heap allocations per compile(): %.1f\n", mean);
      EXPECT_LE(mean, kMaxMeanAllocations);
    }
  }
}

TEST(CompileAllocations, VerifierAllocatesNothingOnValidModules) {
  for (const Cell& c : make_cells()) {
    DiagnosticSink diagnostics;
    std::unique_ptr<ir::Module> module =
        frontend::compile_to_ir(c.workload->source, diagnostics);
    ASSERT_NE(module, nullptr) << c.workload->name;
    passes::optimize_module(*module);
    if (c.options.lower.elide_checks) {
      passes::elide_module(*module, c.options.lower);
    }
    passes::lower_module(*module, c.options.lower);
    // Warm the verifier's scratch, then count a second call.
    ASSERT_TRUE(ir::verify(*module).empty()) << c.workload->name;
    const std::uint64_t before = allocations();
    const std::vector<std::string> problems = ir::verify(*module);
    const std::uint64_t verify_allocations = allocations() - before;
    EXPECT_TRUE(problems.empty());
    EXPECT_EQ(verify_allocations, 0U) << c.workload->name;
  }
}

} // namespace
} // namespace cash
