// Regenerates the paper's evaluation (Tables 1-8, Figures 1-2, Sections
// 3.4, 3.6/4.1, 4.2 and 4.5, and the checking-strategy ablation), then the
// simulator's extensions (check elision, the chaos matrix and the tenant
// kernel), as one text of simulated results only, with no host times or
// thread counts. bench/paper_expected.txt is that text; after a change that
// moves simulated cycles, re-record it with
//
//   build/bench/bench_paper > bench/paper_expected.txt
//
// Given that file's path (as the `paper` ctest does), bench_paper prints
// nothing and exits non-zero, naming the line, if its text differs from the
// file or if a ```text block of EXPERIMENTS.md (in the parent of the file's
// directory) is not a verbatim slice of it.
//
// Each section registers its simulated cells and a printer that reads their
// outcomes. Every cell fills its own slot, and runs any work of its own on
// one thread, so the text is the same for any $CASH_JOBS. A compile or host
// error exits non-zero and names the cell; a simulated fault is data,
// printed in its table.
#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "kernel/kernel_sim.hpp"
#include "netsim/netsim.hpp"
#include "paging/page_table.hpp"
#include "paging/physical_memory.hpp"
#include "runtime/segment_manager.hpp"
#include "workloads/chaos.hpp"
#include "workloads/tenants.hpp"
#include "workloads/workloads.hpp"
#include "x86seg/descriptor.hpp"
#include "x86seg/segmentation_unit.hpp"

namespace {

using namespace cash;
using passes::CheckMode;
using workloads::Workload;
using ull = unsigned long long;
using Paper = std::vector<double>;

constexpr int kRequests = 2000; // Table 8: one forked process per request

std::string vformat(const char* fmt, std::va_list args) {
  std::va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  std::string out(static_cast<std::size_t>(size), '\0');
  va_end(copy);
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

std::string text; // the canonical text, appended to by emit()

[[gnu::format(printf, 1, 2)]] void emit(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  text += vformat(fmt, args);
  va_end(args);
}

void emit_title(const char* title) {
  const char* rule =
      "================================================================";
  emit("\n%s\n%s\n%s\n", rule, title, rule);
}

enum class Action { kRun, kServe };

struct Outcome {
  std::string error; // a compile or host failure: bench_paper exits 1
  passes::LowerStats stats;
  passes::CodeSize size;
  passes::ProgramStats program;
  vm::RunResult run;            // Action::kRun
  netsim::ServerMetrics served; // Action::kServe, or a fill cell's serving
  workloads::ChaosReport chaos;            // fill cells only
  std::vector<workloads::TenantCell> tenants; // fill cells only
};

using Outcomes = std::vector<Outcome>;

// A cell compiles `source` and runs or serves it, unless it has a `fill`:
// then that fills the outcome instead (a chaos seed, a tenant kernel, a
// serving run with a fault plan or tenants).
struct Cell {
  std::string name;
  std::string source;
  CompileOptions options;
  Action action;
  std::function<void(Outcome&)> fill;
};

Outcome evaluate(const Cell& cell) {
  Outcome out;
  if (cell.fill) {
    cell.fill(out);
    return out;
  }
  const CompileResult compiled = compile(cell.source, cell.options);
  if (!compiled.ok()) {
    out.error = "compile failed: " + compiled.error;
    return out;
  }
  const CompiledProgram& program = *compiled.program;
  out.stats = program.lower_stats();
  out.size = program.code_size();
  out.program = program.program_stats(3);
  if (cell.action == Action::kServe) {
    out.served = netsim::serve_requests(program, kRequests, 1,
                                        exec::ExecutorConfig{1});
    return out;
  }
  out.run = program.run();
  if (!out.run.ok && !out.run.fault) {
    out.error = "run failed: " + out.run.error;
  }
  return out;
}

// The first simulated fault among `n` cells, or "" if every run completed.
// (serve_requests throws on a failed request, which ends the program.)
std::string first_failure(const Outcome* cells, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    if (cells[c].run.fault) {
      return format("fault in column %zu: %s", c,
                    cells[c].run.fault->detail.c_str());
    }
  }
  return "";
}

struct Plan {
  std::vector<Cell> cells;
  std::vector<std::function<void(const Outcomes&)>> printers;

  // Returns the cell's index into the outcomes.
  std::size_t add(std::string name, std::string source, CompileOptions options,
                  Action action = Action::kRun) {
    cells.push_back(
        {std::move(name), std::move(source), std::move(options), action, {}});
    return cells.size() - 1;
  }
  std::size_t add(std::string name, std::function<void(Outcome&)> fill) {
    cells.push_back({std::move(name), {}, {}, Action::kRun, std::move(fill)});
    return cells.size() - 1;
  }

  // Cell costs span four orders of magnitude (a 512-sized Table 3 cell
  // takes seconds), so workers pull the next cell from a shared counter
  // rather than take exec::parallel_map's fixed contiguous chunks, which
  // would leave all of Table 3 to one worker.
  Outcomes evaluate_all() const {
    Outcomes out(cells.size());
    std::atomic<std::size_t> next{0};
    const int jobs = exec::resolve_jobs();
    exec::parallel_for(static_cast<std::size_t>(jobs), jobs, [&](std::size_t) {
      for (std::size_t i = next++; i < cells.size(); i = next++) {
        try {
          out[i] = evaluate(cells[i]);
        } catch (const std::exception& e) {
          out[i].error = e.what();
        }
      }
    });
    return out;
  }
};

CompileOptions mode_options(CheckMode mode, int seg_regs = 3) {
  CompileOptions options;
  options.lower.mode = mode;
  options.lower.num_seg_regs = seg_regs;
  return options;
}

double overhead_pct(double base, double measured) {
  return base == 0 ? 0 : (measured - base) / base * 100.0;
}

double share_pct(std::uint64_t part, std::uint64_t whole, double if_empty) {
  return whole == 0 ? if_empty
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

// The share of `base` that `after` no longer spends, in percent.
double cut_pct(double base, double after) {
  return base == 0 ? 0.0 : 100.0 * (1.0 - after / base);
}

double cycles(const Outcome& cell) {
  return static_cast<double>(cell.run.effective_cycles());
}

// One printed table of a grid: a row per workload.
struct Section {
  const char* title;
  std::string header;
  std::vector<Paper> paper; // per workload, unless Workload::paper_* has it
  std::function<void(const Workload&, const Outcome*, const Paper&)> row;
};

// A suite crossed with compile configurations, one cell per (workload,
// column), printed as one or more sections. A row with a simulated fault
// prints the fault instead of its numbers.
struct Grid {
  const std::vector<Workload>& suite;
  std::vector<CompileOptions> columns;
  Action action;
  std::vector<Section> sections;
};

void add_grid(Plan& plan, Grid grid) {
  const std::size_t first = plan.cells.size();
  for (const Workload& w : grid.suite) {
    for (std::size_t c = 0; c < grid.columns.size(); ++c) {
      plan.add(format("%s / %s / column %zu", grid.sections[0].title,
                      w.name.c_str(), c),
               w.source, grid.columns[c], grid.action);
    }
  }
  plan.printers.push_back([first, grid = std::move(grid)](const Outcomes& out) {
    const std::size_t width = grid.columns.size();
    for (const Section& section : grid.sections) {
      emit_title(section.title);
      emit("%s\n", section.header.c_str());
      for (std::size_t w = 0; w < grid.suite.size(); ++w) {
        const Outcome* row = &out[first + w * width];
        const std::string failure = first_failure(row, width);
        if (!failure.empty()) {
          emit("%-14s %s\n", grid.suite[w].name.c_str(), failure.c_str());
        } else {
          section.row(grid.suite[w], row,
                      section.paper.empty() ? Paper{} : section.paper[w]);
        }
      }
    }
  });
}

// Columns of the three-way comparisons: GCC, Cash, BCC.
std::vector<CompileOptions> gcc_cash_bcc(int cash_seg_regs) {
  return {mode_options(CheckMode::kNoCheck),
          mode_options(CheckMode::kCash, cash_seg_regs),
          mode_options(CheckMode::kBcc)};
}

// Tables 2 and 6: binary code size of a GCC, Cash, BCC grid.
Section code_size(const char* title, int name_width, std::vector<Paper> paper) {
  return {title,
          format("%-*s %12s %9s %9s %16s %16s", name_width, "Program",
                 "GCC (bytes)", "Cash", "BCC", "paper Cash", "paper BCC"),
          std::move(paper),
          [name_width](const Workload& w, const Outcome* c, const Paper& p) {
            const std::uint64_t gcc = c[0].size.total_bytes;
            emit("%-*s %12llu %8.1f%% %8.1f%% %15.1f%% %15.1f%%\n",
                 name_width, w.name.c_str(), ull(gcc),
                 overhead_pct(gcc, c[1].size.total_bytes),
                 overhead_pct(gcc, c[2].size.total_bytes), p[0], p[1]);
          }};
}

// Tables 4 and 7: static loop characteristics of a grid's Cash column
// (column 1), under the three-register budget.
Section loop_characteristics(const char* title, std::vector<Paper> paper) {
  return {title,
          "Program         LoC  Array-Using Loops     > 3 Arrays     paper >3",
          std::move(paper),
          [](const Workload& w, const Outcome* c, const Paper& p) {
            const passes::ProgramStats& s = c[1].program;
            emit("%-10s %8llu %18llu %8llu (%4.1f%%) %10.1f%%\n",
                 w.name.c_str(), ull(s.lines_of_code),
                 ull(s.array_using_loops), ull(s.loops_over_budget),
                 share_pct(s.loops_over_budget, s.array_using_loops, 0.0),
                 p[0]);
          }};
}

// Table 3: Cash's overhead against input size, with the absolute Cash-GCC
// cycle delta beside each percentage.
void table3(Plan& plan) {
  struct Kernel {
    const char* name;
    std::string (*source)(int);
    double paper[4];
  };
  static const Kernel kKernels[] = {
      {"2D FFT", workloads::fft2d_source, {3.9, 1.5, 0.1, 0.001}},
      {"Gaussian", workloads::gauss_source, {5.7, 1.6, 1.7, 0.3}},
      {"Matrix", workloads::matmul_source, {2.2, 1.5, 1.4, 0.1}},
  };
  static const int kSizes[] = {64, 128, 256, 512};
  const std::size_t first = plan.cells.size();
  for (const Kernel& kernel : kKernels) {
    for (int n : kSizes) {
      const std::string source = kernel.source(n);
      plan.add(format("Table 3 / %s / %d / GCC", kernel.name, n), source,
               mode_options(CheckMode::kNoCheck));
      plan.add(format("Table 3 / %s / %d / Cash", kernel.name, n), source,
               mode_options(CheckMode::kCash, 4));
    }
  }
  plan.printers.push_back([first](const Outcomes& out) {
    emit_title("Table 3: Cash overhead vs matrix size (64..512)");
    emit("Program                     64x                 128x                 "
         "256x                 512x   paper 64/128/256/512\n");
    const std::size_t width = 2 * std::size(kSizes);
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      const Outcome* row = &out[first + k * width];
      const std::string failure = first_failure(row, width);
      if (!failure.empty()) {
        emit("%-10s %s\n", kKernels[k].name, failure.c_str());
        continue;
      }
      emit("%-10s", kKernels[k].name);
      for (const Outcome* cell = row; cell != row + width; cell += 2) {
        const long long delta = static_cast<long long>(cell[1].run.cycles) -
                                static_cast<long long>(cell[0].run.cycles);
        emit(" %20s",
             format("%.6f%% (%+lld)",
                    overhead_pct(cycles(cell[0]), cycles(cell[1])), delta)
                 .c_str());
      }
      const double* paper = kKernels[k].paper;
      emit("   %g/%g/%g/%g\n", paper[0], paper[1], paper[2], paper[3]);
    }
  });
}

// Figure 1: one Cash-checked access through the simulated translation
// pipeline, from selector to physical address, and the same pipeline
// rejecting an out-of-bounds offset.
void fig1(const Outcomes&) {
  using x86seg::SegReg;
  emit_title("Figure 1: memory translation in the simulated X86 hardware");
  kernel::KernelSim kern;
  const kernel::Pid pid = kern.create_process();
  paging::PhysicalMemory phys(1024);
  paging::PageTable pages(phys);
  x86seg::SegmentationUnit unit(kern.gdt(), kern.ldt(pid));
  // An "array" of 100 bytes at linear 0x08049234 with its own segment.
  (void)kern.set_ldt_callgate(pid);
  (void)kern.cash_modify_ldt(
      pid, 42, x86seg::SegmentDescriptor::for_array(0x08049234, 100));
  const auto selector = x86seg::Selector::make(42, /*local=*/true, /*rpl=*/3);
  emit("1. segment selector: raw=0x%04x  index=%u  TI=%s  RPL=%u\n",
       selector.raw(), selector.index(), selector.is_local() ? "LDT" : "GDT",
       selector.rpl());
  (void)unit.load(SegReg::kGs, selector);
  const auto& hidden = unit.reg(SegReg::kGs).cached;
  emit("2. descriptor fetched into the hidden part of GS:\n"
       "   base=0x%08x  raw_limit=0x%05x  G=%d  span=%llu bytes\n"
       "   raw wire format: 0x%016llx\n",
       hidden.base(), hidden.raw_limit(), hidden.granularity(),
       ull(hidden.span()), ull(hidden.encode()));
  const std::uint32_t offset = 64;
  const std::uint32_t linear =
      unit.translate(SegReg::kGs, offset, 4, x86seg::Access::kWrite).value();
  pages.map_range(linear, 4);
  const std::uint32_t physical = pages.translate(linear, 4, true, true).value();
  emit("3. limit check: offset 0x%x + 4 <= limit 0x%x  -> PASS\n"
       "4. linear address = base + offset = 0x%08x\n"
       "5. page walk: dir=%u table=%u -> frame %u\n"
       "6. physical address = 0x%08x\n\n",
       offset, hidden.effective_limit(), linear, linear >> 22,
       (linear >> 12) & 0x3FF, physical >> 12, physical);
  const auto bad = unit.translate(SegReg::kGs, 100, 4, x86seg::Access::kWrite);
  emit("Out-of-bounds probe (offset 100, size 4): %s\n",
       bad.ok() ? "PASSED (unexpected!)" : bad.fault().detail.c_str());
}

// Figure 2: for arrays over 1 MB the granularity bit makes the lower bound
// imprecise by up to one page, while the upper bound stays byte-precise.
// A descriptor-level probe, then two MiniC programs that write p[from..to)
// of a 1.2 MB array.
void fig2(Plan& plan) {
  const auto writes = [](const char* from, const char* to) {
    return format(R"(
int big[300000];
int main() {
  int *p;
  int i;
  p = big;
  for (i = %s; i < %s; i++) {
    p[i] = i;
  }
  return 0;
}
)",
                  from, to);
  };
  const CompileOptions cash = mode_options(CheckMode::kCash);
  const std::size_t below =
      plan.add("Figure 2 / p[-8..3]", writes("0 - 8", "4"), cash);
  plan.add("Figure 2 / p[299998..300001]", writes("299998", "300002"), cash);
  plan.printers.push_back([below](const Outcomes& out) {
    using x86seg::SegmentDescriptor;
    emit_title("Figure 2: lower-bound slack for arrays > 1 MB");
    const std::uint32_t base = 0x10000100;
    const std::uint32_t size = (2U << 20) + 100; // 2 MB + 100 B array
    const SegmentDescriptor big = SegmentDescriptor::for_array(base, size);
    const std::int64_t slack = base - big.base(); // under-coverage below
    emit("array: base=0x%08x size=%u bytes\n"
         "segment: base=0x%08x granularity=%d raw_limit=0x%05x span=%llu "
         "bytes\n"
         "lower-bound slack: %lld bytes (< 4096 as Section 3.5 states)\n\n",
         base, size, big.base(), big.granularity() ? 1 : 0, big.raw_limit(),
         ull(big.span()), static_cast<long long>(slack));
    // rel is the byte offset relative to the array's first byte.
    const auto probe = [base](const SegmentDescriptor& d, std::int64_t rel,
                              const char* label) {
      const std::uint32_t address = static_cast<std::uint32_t>(base + rel);
      emit("  array%+8lld : %-7s %s\n", static_cast<long long>(rel),
           d.offset_in_limit(address - d.base(), 4) ? "PASSES" : "FAULTS",
           label);
    };
    probe(big, 0, "first byte of the array");
    probe(big, size - 4, "last word of the array");
    probe(big, size, "one past the end  (upper bound is byte-precise)");
    probe(big, -4, "just below the array (inside the slack: undetected)");
    probe(big, -slack, "lowest byte the segment still covers");
    probe(big, -slack - 4, "below the slack (detected)");
    emit("\nSmall arrays (<= 1 MB) use byte-granular segments — both bounds "
         "exact:\n");
    const SegmentDescriptor small = SegmentDescriptor::for_array(base, 4096);
    probe(small, 0, "first byte");
    probe(small, 4092, "last word");
    probe(small, 4096, "one past the end (detected)");
    probe(small, -4, "one below the start (detected)");
    emit_title("MiniC demonstration");
    const vm::RunResult& under = out[below].run;
    emit("1.2 MB array, writes p[-8..3]: %s\n"
         "1.2 MB array, writes p[299998..300001]: %s\n",
         under.ok ? "NOT caught (inside the Figure 2 slack)"
                  : ("caught: " + under.fault->detail).c_str(),
         out[below + 1].run.bound_violation()
             ? "caught at the exact upper bound (byte-precise)"
             : "NOT caught (unexpected!)");
  });
}

// Sections 3.6 and 4.1: the fixed costs of the Cash runtime, then the
// marginal cost of one local array per call, end to end.
void overheads(Plan& plan) {
  const std::string main_loop = R"(
int main() {
  int i; int s = 0;
  for (i = 0; i < 1000; i++) { s = s + work(i); }
  return s;
}
)";
  const std::string one_array = R"(
int work(int x) {
  int scratch[16];
  scratch[x % 16] = x;
  return scratch[x % 16] * 3 + 1;
})" + main_loop;
  const std::size_t first =
      plan.add("Section 4.1 / no array / Cash",
               "\nint work(int x) { return x * 3 + 1; }" + main_loop,
               mode_options(CheckMode::kCash));
  plan.add("Section 4.1 / one array / Cash", one_array,
           mode_options(CheckMode::kCash));
  plan.add("Section 4.1 / one array / GCC", one_array,
           mode_options(CheckMode::kNoCheck));
  plan.printers.push_back([first](const Outcomes& out) {
    emit_title("Sections 3.6/4.1: fixed Cash overheads (simulated cycles)");
    const auto line = [](const char* what, std::uint64_t cycles,
                         const char* paper) {
      emit("%-42s %8llu   (%s)\n", what, ull(cycles), paper);
    };
    kernel::KernelSim kern;
    const kernel::Pid pid = kern.create_process();
    (void)kern.set_ldt_callgate(pid);
    const auto desc = x86seg::SegmentDescriptor::for_array(0x1000, 256);
    (void)kern.modify_ldt(pid, 5, desc);
    const std::uint64_t syscall_cycles = kern.account(pid).kernel_cycles;
    (void)kern.cash_modify_ldt(pid, 6, desc);
    line("modify_ldt() system call", syscall_cycles, "paper: 781");
    line("cash_modify_ldt via call gate",
         kern.account(pid).kernel_cycles - syscall_cycles, "paper: 253");
    kernel::KernelSim kern2;
    runtime::SegmentManager segments(kern2, kern2.create_process());
    line("per-program set-up", segments.initialize(), "paper: 543");
    const auto alloc = segments.allocate(0x2000, 512);
    line("per-array set-up (cache miss)", alloc.cycles, "paper: 263");
    (void)segments.release(alloc.ldt_index, 0x2000, 512);
    line("per-array set-up (cache hit)", segments.allocate(0x2000, 512).cycles,
         "3-entry cache hit");
    line("per-array-use (segment register load)", costs::kSegRegLoad,
         "paper: 4; +2 set-up movs");
    line("software bound check (BCC sequence)", costs::kSoftwareBoundCheck,
         "paper: 6 instructions");
    line("x86 `bound` instruction", costs::kBoundInstruction,
         "paper: 7 on P3");
    emit_title("End-to-end: marginal cost of one local array per call");
    emit("1000 calls of a function with one local array:\n");
    const Outcome* c = &out[first];
    const std::string failure = first_failure(c, 3);
    if (!failure.empty()) {
      emit("  %s\n", failure.c_str());
      return;
    }
    const vm::RunResult& with = c[1].run;
    emit("  cash-without-array: %llu cycles, cash-with: %llu, gcc-with: %llu\n"
         "  marginal Cash cost per call: %.1f cycles (first call pays 263, "
         "later calls hit the 3-entry cache)\n"
         "  cache hits: %llu / %llu allocation requests\n",
         ull(c[0].run.cycles), ull(with.cycles), ull(c[2].run.cycles),
         (cycles(c[1]) - cycles(c[2])) / 1000.0,
         ull(with.segment_stats.cache_hits),
         ull(with.segment_stats.alloc_requests));
  });
}

// Section 3.4's alternative to the global-segment fallback past 8191 live
// segments: several LDTs per process with on-demand LDTR switching. Does it
// protect what the fallback leaves unchecked, and does switching thrash?
void multildt(Plan& plan) {
  const char* overflow_late = R"(
int main() {
  int *p;
  int i;
  p = malloc(8);
  for (i = 0; i < 8250; i++) {
    p = malloc(8);
  }
  for (i = 0; i < 6; i++) {
    p[i] = i;
  }
  return 0;
}
)";
  // The worst realistic switching pattern: a hot loop alternating between
  // buffers in different LDTs.
  const char* alternating = R"(
int tail_work(int *buf, int x) {
  int i;
  for (i = 0; i < 16; i++) {
    buf[i] = x + i;
  }
  return buf[0];
}
int main() {
  int *early;
  int *late;
  int *p;
  int i;
  int s;
  early = malloc(64);
  for (i = 0; i < 8250; i++) {
    p = malloc(8);
  }
  late = malloc(64);      // lands in the second LDT (if enabled)
  s = 0;
  for (i = 0; i < 2000; i++) {
    s = s + tail_work(early, i);
    s = s + tail_work(late, i);
  }
  print_int(s);
  return 0;
}
)";
  static const int kCoverageLdts[] = {1, 2};
  static const int kSwitchingLdts[] = {1, 2, 4};
  const auto add = [&plan](const char* probe, const char* source, int ldts) {
    CompileOptions options = mode_options(CheckMode::kCash);
    options.machine.max_ldts = ldts;
    return plan.add(format("Section 3.4 / %s / max_ldts=%d", probe, ldts),
                    source, options);
  };
  const std::size_t first = plan.cells.size();
  for (int ldts : kCoverageLdts) {
    add("overflow", overflow_late, ldts);
  }
  for (int ldts : kSwitchingLdts) {
    add("alternating", alternating, ldts);
  }
  plan.printers.push_back([first](const Outcomes& out) {
    emit_title("Section 3.4 ablation: multiple LDTs vs global-segment "
               "fallback");
    emit("8,250 live buffers; the last one (past the 8191-entry LDT)\n"
         "is overflowed:\n\n");
    const Outcome* cell = &out[first];
    for (int ldts : kCoverageLdts) {
      const vm::RunResult& r = (cell++)->run;
      emit("  max_ldts=%d: %-12s  fallbacks=%llu  extra LDTs=%llu  "
           "LDTR switches=%llu\n",
           ldts, r.ok ? "NOT caught" : "caught",
           ull(r.segment_stats.global_fallbacks),
           ull(r.segment_stats.extra_ldts_created),
           ull(r.kernel_account.ldt_switches));
    }
    emit("\nHot loop alternating two buffers from different LDTs "
         "(2000 iterations):\n\n");
    const double base_cycles = cycles(*cell);
    for (int ldts : kSwitchingLdts) {
      const vm::RunResult& r = (cell++)->run;
      if (r.fault) {
        emit("  max_ldts=%d: fault: %s\n", ldts, r.fault->detail.c_str());
        continue;
      }
      emit("  max_ldts=%d: %11llu cycles (%+5.2f%%)  LDTR switches=%llu"
           "  unchecked objects=%llu\n",
           ldts, ull(r.cycles),
           overhead_pct(base_cycles, r.cycles),
           ull(r.kernel_account.ldt_switches),
           ull(r.segment_stats.global_fallbacks));
    }
  });
}

// For the fill cells: the program compiled for `mode`, or a host error.
CompileResult compile_or_throw(const std::string& source, CheckMode mode) {
  CompileResult compiled = compile(source, mode_options(mode));
  if (!compiled.ok()) {
    throw std::runtime_error("compile failed: " + compiled.error);
  }
  return compiled;
}

// Extension: whole-program check elision (passes/elide.cpp), which deletes,
// hoists and widens the checks it proves redundant. The six micro kernels
// under the four checked modes, elision off and on; then
// workloads::kOverrunProbe, which both compilations must catch.
void elision(Plan& plan) {
  static const char* const kKernels[] = {"matmul", "gauss",  "fft2d",
                                         "edge",   "volren", "svd"};
  const std::string sources[] = {
      workloads::matmul_source(56),     workloads::gauss_source(56),
      workloads::fft2d_source(32),      workloads::edge_source(192, 128),
      workloads::volren_source(32, 64), workloads::svd_source(48, 32, 8)};
  static const std::pair<const char*, CheckMode> kModes[] = {
      {"bcc", CheckMode::kBcc},
      {"cash", CheckMode::kCash},
      {"bound", CheckMode::kBoundInsn},
      {"shadow", CheckMode::kShadow}};
  // Each program gets one cell per mode with elision off, then on.
  const auto add_pairs = [&plan](const char* what, const std::string& source) {
    for (const auto& [name, mode] : kModes) {
      for (bool elide : {false, true}) {
        CompileOptions options = mode_options(mode);
        options.lower.elide_checks = elide;
        plan.add(format("Elision / %s / %s / elide %s", what, name,
                        elide ? "on" : "off"),
                 source, options);
      }
    }
  };
  const std::size_t first = plan.cells.size();
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    add_pairs(kKernels[k], sources[k]);
  }
  const std::size_t probed = plan.cells.size();
  add_pairs("probe", workloads::kOverrunProbe);
  plan.printers.push_back([first, probed](const Outcomes& out) {
    emit_title("Extension: whole-program check elision, off vs on");
    emit("%-8s %-7s %12s %12s %7s %5s %6s %6s %10s\n", "kernel", "mode",
         "base chk-cy", "elide chk-cy", "redux", "del", "hoist", "widen",
         "identical");
    std::uint64_t base_total = 0;
    std::uint64_t elided_total = 0;
    std::uint64_t removed = 0;
    std::uint64_t static_checks = 0;
    int improved_bcc = 0;
    int improved_cash = 0;
    const Outcome* cell = &out[first];
    for (const char* kernel : kKernels) {
      for (const auto& [name, mode] : kModes) {
        const Outcome& base = cell[0];
        const Outcome& elided = cell[1];
        const std::string failure = first_failure(cell, 2);
        cell += 2;
        if (!failure.empty()) {
          emit("%-8s %-7s %s\n", kernel, name, failure.c_str());
          continue;
        }
        const std::uint64_t base_chk = base.run.breakdown.checking;
        const std::uint64_t elided_chk = elided.run.breakdown.checking;
        const passes::ElideStats& s = elided.run.elide_stats;
        base_total += base_chk;
        elided_total += elided_chk;
        removed += s.checks_removed();
        static_checks += base.stats.sw_checks + base.stats.hw_checks;
        if (s.checks_deleted + s.checks_hoisted > 0) {
          improved_bcc += mode == CheckMode::kBcc;
          improved_cash += mode == CheckMode::kCash;
        }
        const bool identical = base.run.output == elided.run.output &&
                               base.run.exit_code == elided.run.exit_code;
        emit("%-8s %-7s %12llu %12llu %6.1f%% %5llu %6llu %6llu %10s\n",
             kernel, name, ull(base_chk), ull(elided_chk),
             cut_pct(base_chk, elided_chk), ull(s.checks_deleted),
             ull(s.checks_hoisted), ull(s.checks_widened),
             identical ? "yes" : "NO");
      }
    }
    emit("%-8s %-7s %12llu %12llu %6.1f%%   (removed %llu of %llu static "
         "checks)\n",
         "total", "-", ull(base_total), ull(elided_total),
         cut_pct(base_total, elided_total), ull(removed), ull(static_checks));
    emit("kernels with deleted+hoisted > 0: bcc %d/%zu, cash %d/%zu\n",
         improved_bcc, std::size(kKernels), improved_cash,
         std::size(kKernels));
    emit("\nViolating probe: walk(p, n) reads p[0..n-1] with n = 0, then n = "
         "101 on a 100-element array\n");
    emit("%-7s %-14s %-14s %s\n", "mode", "base fault", "elide fault",
         "output-identical");
    cell = &out[probed];
    for (const auto& [name, mode] : kModes) {
      const vm::RunResult& base = cell[0].run;
      const vm::RunResult& elided = cell[1].run;
      cell += 2;
      emit("%-7s %-14s %-14s %s\n", name,
           base.bound_violation() ? "violation" : "MISSED",
           elided.bound_violation() ? "violation" : "MISSED",
           base.output == elided.output ? "yes" : "NO");
    }
  });
}

// Extension: fault injection (faultinject/). The chaos matrix runs each
// seed's fuzz program under every named fault plan: a run must complete
// with the clean run's output, possibly on a degraded path, or end in a
// structured fault. Then one armed plan on the serving loop.
void chaos(Plan& plan) {
  constexpr std::uint32_t kSeeds = 24; // seeds 1..24
  constexpr int kArmedRequests = 400;
  const std::size_t matrix = plan.add("Chaos / matrix", [](Outcome& out) {
    out.chaos =
        workloads::run_chaos_matrix(1, kSeeds + 1, exec::ExecutorConfig{1});
  });
  plan.add("Chaos / armed serving", [](Outcome& out) {
    // One request in four times out (retried, budget 2), and every fifth
    // segment allocation inside the children degrades.
    faultinject::FaultPlan armed;
    armed.seed = 7;
    armed.net_retry_budget = 2;
    armed.rules.push_back(
        {faultinject::FaultSite::kNetRequestTimeout, 0, 1, 0, 4});
    armed.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 5, 0, 1});
    out.served = netsim::serve_requests(
        *compile_or_throw(workloads::network_suite().front().source,
                          CheckMode::kCash)
             .program,
        kArmedRequests, 1, exec::ExecutorConfig{1}, armed);
  });
  plan.printers.push_back([matrix](const Outcomes& out) {
    const std::vector<workloads::ChaosPlanSpec>& plans =
        workloads::chaos_plans();
    emit_title("Extension: chaos matrix, fault injection vs degradation");
    emit("matrix: seeds [1, %u) x %zu plans\n\n", kSeeds + 1, plans.size());
    emit("%-16s %6s %10s %9s %8s %9s %10s\n", "plan", "cells", "completed",
         "degraded", "faulted", "injected", "violations");
    // The report's cells are seed-major.
    const std::vector<workloads::ChaosCell>& cells = out[matrix].chaos.cells;
    for (std::size_t p = 0; p < plans.size(); ++p) {
      workloads::ChaosReport row;
      for (std::size_t c = p; c < cells.size(); c += plans.size()) {
        row.add(cells[c]);
      }
      emit("%-16s %6zu %10llu %9llu %8llu %9llu %10llu\n",
           plans[p].name.c_str(), row.cells.size(), ull(row.completed),
           ull(row.degraded), ull(row.faulted), ull(row.faults_injected),
           ull(row.violations));
    }
    const netsim::ServerMetrics& m = out[matrix + 1].served;
    emit("\n%s under Cash, %d requests\n",
         workloads::network_suite().front().name.c_str(), kArmedRequests);
    emit("netsim armed plan: %llu timeouts, %llu retries, %llu degraded, "
         "%llu failed, %llu faults injected\n",
         ull(m.timeouts), ull(m.retries), ull(m.degraded_requests),
         ull(m.failed_requests), ull(m.faults_injected));
  });
}

// Extension: the multi-process kernel (DESIGN.md §10). Tenant processes
// share one simulated kernel, scheduled round-robin, each churning its own
// arrays through its own segment manager. Then a cell under a shared LDT
// slot budget, a cell with tenant 0 under an armed plan beside each tenant
// run alone, and tenanted serving per mode.
void tenants(Plan& plan) {
  using workloads::TenantCell;
  using workloads::TenantOptions;
  static const std::pair<const char*, CheckMode> kModes[] = {
      {"gcc", CheckMode::kNoCheck},
      {"bcc", CheckMode::kBcc},
      {"cash", CheckMode::kCash}};
  // Three request classes (three tenant processes) with different
  // working-set shapes.
  static const char* const kServer = R"(
int table[1024];
int *pool;
int server_init() {
  int i;
  for (i = 0; i < 1024; i++) {
    table[i] = i * 3 % 251;
  }
  pool = malloc(512);
  for (i = 0; i < 128; i++) {
    pool[i] = table[i * 8];
  }
  return 0;
}
int handle_request() {
  int buf[64];
  int i; int n; int s;
  n = rand() % 48 + 16;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 64] = table[(i * 7) % 1024] + pool[i % 128];
    s = s + buf[i % 64];
  }
  return s;
}
int handle_large() {
  int buf[64];
  int i; int n; int s;
  n = rand() % 64 + 128;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 64] = table[(i * 13) % 1024] + pool[(i * 3) % 128];
    s = s + buf[i % 64];
  }
  return s;
}
int handle_small() {
  int i; int s;
  s = 0;
  for (i = 0; i < 12; i++) {
    s = s + table[(i * 31) % 1024];
  }
  return s;
}
int main() { server_init(); return handle_request(); }
)";
  TenantOptions base;
  base.rounds = 3;
  base.seed = 17;
  const std::size_t matrix = plan.add("Tenants / matrix", [base](Outcome& out) {
    out.tenants = workloads::run_tenant_matrix(
        {1, 2, 8}, {32, 96}, {600, 6000, 60000}, base, exec::ExecutorConfig{1});
  });
  TenantOptions budgeted = base;
  budgeted.processes = 8;
  budgeted.arrays_per_process = 64;
  budgeted.quantum_cycles = 2000;
  budgeted.ldt_slot_budget = 96;
  plan.add("Tenants / budgeted", [budgeted](Outcome& out) {
    out.tenants = {workloads::run_tenant_cell(budgeted)};
  });
  TenantOptions isolated = base;
  isolated.processes = 4;
  isolated.arrays_per_process = 48;
  isolated.quantum_cycles = 1500;
  isolated.tenant0_plan.rules.push_back(
      {faultinject::FaultSite::kLdtCrossTenant, 0, 2, 0, 1});
  plan.add("Tenants / isolation", [isolated](Outcome& out) {
    TenantCell alone; // each tenant's record from a kernel of its own
    for (int i = 0; i < isolated.processes; ++i) {
      alone.tenants.push_back(workloads::run_tenant_solo(isolated, i));
    }
    out.tenants = {workloads::run_tenant_cell(isolated), std::move(alone)};
  });
  netsim::ServeOptions tenanted;
  tenanted.classes = {{"small", "handle_small", 3},
                      {"bulk", "handle_large", 2},
                      {"web", "handle_request", 4}};
  tenanted.sim_servers = 2;
  tenanted.mean_interarrival_cycles = 2000;
  tenanted.tenant_processes = true;
  for (const auto& [name, mode] : kModes) {
    plan.add(format("Tenants / serving / %s", name),
             [mode, tenanted](Outcome& out) {
               out.served = netsim::serve_requests(
                   *compile_or_throw(kServer, mode).program,
                   600, 5, exec::ExecutorConfig{1}, {}, tenanted);
             });
  }
  plan.printers.push_back([matrix, budgeted](const Outcomes& out) {
    emit_title("Extension: multi-process kernel, tenant pressure");
    emit("%6s %7s %9s %10s %10s %9s %8s\n", "procs", "arrays", "quantum",
         "switches", "switch-ovh", "thrash", "slots");
    std::uint64_t total_user = 0;
    std::uint64_t total_switch = 0;
    for (const TenantCell& t : out[matrix].tenants) {
      total_user += t.total_user_cycles;
      total_switch += t.sched.context_switch_cycles;
      emit("%6d %7d %9llu %10llu %9.4f%% %8.4f %8llu\n", t.processes,
           t.arrays_per_process, ull(t.quantum_cycles),
           ull(t.sched.context_switches), t.switch_overhead * 100.0,
           t.thrash_ratio, ull(t.ldt_slots_installed));
    }
    emit("matrix context-switch overhead: %.4f%% of (user + switch) cycles\n",
         share_pct(total_switch, total_user + total_switch, 0.0));
    const TenantCell& b = out[matrix + 1].tenants[0];
    std::uint64_t fallbacks = 0;
    for (const workloads::TenantRecord& record : b.tenants) {
      fallbacks += record.seg.budget_fallbacks;
    }
    emit("budgeted cell (%d tenants, %llu-slot budget): thrash %.4f, %llu "
         "budget fallbacks, %llu slots live\n",
         budgeted.processes, ull(budgeted.ldt_slot_budget), b.thrash_ratio,
         ull(fallbacks), ull(b.ldt_slots_installed));
    const std::vector<TenantCell>& isolation = out[matrix + 2].tenants;
    const workloads::TenantRecord& armed = isolation[0].tenants[0];
    emit("\nisolation: tenant 0 armed ldt-cross-tenant (%llu faults, %llu "
         "fallbacks); neighbors %s solo baselines\n",
         ull(armed.faults_injected), ull(armed.seg.budget_fallbacks),
         isolation[0].tenants == isolation[1].tenants ? "match"
                                                      : "DIVERGE from");
    emit("\n%-5s %-7s %12s %10s %12s %14s\n", "mode", "class", "reqs",
         "switches", "check cyc", "switch cyc");
    const Outcome* serving = &out[matrix + 3];
    for (const auto& [name, mode] : kModes) {
      const netsim::ServerMetrics& m = (serving++)->served;
      for (const netsim::ClassMetrics& c : m.classes) {
        emit("%-5s %-7s %12llu %10llu %12llu %14llu\n", name, c.name.c_str(),
             ull(c.requests), ull(c.context_switches_in),
             ull(c.checking_cycles),
             ull(c.context_switches_in * costs::kContextSwitch));
      }
      emit("%-5s %-7s %12d %10llu %12llu %14llu\n", name, "all", m.requests,
           ull(m.context_switches), ull(m.checking_cycles),
           ull(m.context_switch_cycles));
    }
  });
}

// Every section, in the order the text prints them.
void plan_paper(Plan& plan) {
  // Tables 1 and 2: the micro kernels. Cash has four segment registers,
  // which eliminates every software check.
  add_grid(plan, {workloads::micro_suite(), gcc_cash_bcc(4), Action::kRun, {
      {"Table 1: kernel performance, GCC vs Cash (4 seg regs) vs BCC",
       "Program              HW/SW  GCC (Kcycles)      Cash       BCC       "
       "paper Cash        paper BCC",
       {},
       [](const Workload& w, const Outcome* c, const Paper&) {
         emit("%-14s %6llu/%-4llu %14.0f %8.2f%% %8.1f%% %15.1f%% %15.1f%%\n",
              w.name.c_str(), ull(c[1].stats.hw_checks),
              ull(c[1].stats.sw_checks), cycles(c[0]) / 1000.0,
              overhead_pct(cycles(c[0]), cycles(c[1])),
              overhead_pct(cycles(c[0]), cycles(c[2])),
              w.paper_cash_overhead_pct, w.paper_bcc_overhead_pct);
       }},
      code_size("Table 2: binary code size, micro suite (static linking)", 14,
                {{29.9, 127.1}, {30.1, 124.2}, {28.6, 135.9},
                 {29.8, 125.6}, {29.9, 145.2}, {30.4, 146.5}}),
  }});

  // Section 4.2: with 2 or 3 segment registers, loops that touch more
  // arrays fall back to software checks.
  add_grid(plan, {workloads::micro_suite(),
                  {mode_options(CheckMode::kNoCheck),
                   mode_options(CheckMode::kCash, 2),
                   mode_options(CheckMode::kCash, 3),
                   mode_options(CheckMode::kCash, 4)},
                  Action::kRun, {
      {"Section 4.2: Cash overhead vs number of segment registers",
       "Program         2 regs: HW/SW  elim%   ovhd  3 regs: HW/SW  elim%   "
       "ovhd  4 regs: HW/SW  elim%   ovhd",
       {},
       [](const Workload& w, const Outcome* c, const Paper&) {
         emit("%-14s", w.name.c_str());
         for (int r = 1; r <= 3; ++r) {
           const passes::LowerStats& s = c[r].stats;
           emit("  %4llu/%-3llu %6.1f%% %6.2f%%", ull(s.hw_checks),
                ull(s.sw_checks),
                share_pct(s.hw_checks, s.hw_checks + s.sw_checks, 100.0),
                overhead_pct(cycles(c[0]), cycles(c[r])));
         }
         emit("\n");
       }},
  }});

  table3(plan);

  // Tables 4, 5 and 6 and the Section 4.5 allocation statistics: the macro
  // applications.
  add_grid(plan, {workloads::macro_suite(), gcc_cash_bcc(3), Action::kRun, {
      loop_characteristics("Table 4: macro application characteristics",
                           {{0.6}, {1.5}, {9.3}, {0.2}, {2.8}, {1.3}}),
      {"Table 5: macro application performance",
       "Program     GCC (Kcycles)      Cash       BCC       paper Cash        "
       "paper BCC",
       {},
       [](const Workload& w, const Outcome* c, const Paper&) {
         emit("%-10s %14.0f %8.2f%% %8.1f%% %15.1f%% %15.1f%%\n",
              w.name.c_str(), cycles(c[0]) / 1000.0,
              overhead_pct(cycles(c[0]), cycles(c[1])),
              overhead_pct(cycles(c[0]), cycles(c[2])),
              w.paper_cash_overhead_pct, w.paper_bcc_overhead_pct);
       }},
      {"Section 4.5: segment allocation behaviour (Cash runs)",
       "Program        alloc reqs   cache hits      hit %   gate calls    "
       "peak segs",
       {},
       [](const Workload& w, const Outcome* c, const Paper&) {
         const runtime::SegmentManager::Stats& s = c[1].run.segment_stats;
         emit("%-10s %14llu %12llu %9.1f%% %12llu %12u\n", w.name.c_str(),
              ull(s.alloc_requests), ull(s.cache_hits),
              share_pct(s.cache_hits, s.alloc_requests, 0.0),
              ull(c[1].run.kernel_account.call_gate_calls), s.peak_segments);
       }},
      code_size("Table 6: binary code size, macro suite (static linking)", 10,
                {{61.8, 123.5}, {52.5, 130.9}, {58.9, 151.2},
                 {35.8, 130.8}, {30.6, 136.9}, {35.8, 136.6}}),
  }});

  // Tables 7 and 8: the network applications, served one forked process
  // per request.
  add_grid(plan, {workloads::network_suite(),
                  {mode_options(CheckMode::kNoCheck),
                   mode_options(CheckMode::kCash)},
                  Action::kServe, {
      loop_characteristics("Table 7: network application characteristics",
                           {{0.9}, {0.5}, {1.4}, {0.4}, {0.5}, {0.6}}),
      {"Table 8: network application penalties under Cash",
       format("(%d requests per application, one forked process each)\n\n"
              "Program      Latency  Throughput     Space     paper Lat.     "
              "paper Thr.    paper Space",
              kRequests),
       {{6.5, 6.1, 60.1}, {3.3, 3.2, 56.3}, {9.8, 8.9, 44.8},
        {2.5, 2.4, 68.3}, {3.3, 3.2, 63.4}, {4.4, 4.3, 53.6}},
       [](const Workload& w, const Outcome* c, const Paper& p) {
         const netsim::ServerMetrics& gcc = c[0].served;
         const netsim::ServerMetrics& cash_m = c[1].served;
         // Throughput penalty: the relative drop in requests per second.
         emit("%-10s %8.2f%% %10.2f%% %8.1f%% %13.1f%% %13.1f%% %13.1f%%\n",
              w.name.c_str(),
              netsim::penalty_pct(gcc.mean_latency_cycles,
                                  cash_m.mean_latency_cycles),
              netsim::penalty_pct(cash_m.throughput_rps, gcc.throughput_rps),
              overhead_pct(c[0].size.total_bytes, c[1].size.total_bytes),
              p[0], p[1], p[2]);
       }},
  }});

  plan.printers.push_back(fig1);
  fig2(plan);
  overheads(plan);

  // Related-work and design ablations (Sections 2 and 3.8): security-only
  // Cash, Gupta-style redundant check elimination, the x86 `bound`
  // instruction, Electric-Fence guard pages, and concurrent shadow-processor
  // checking (wall clock: whichever processor is the bottleneck).
  CompileOptions cash_security_only = mode_options(CheckMode::kCash);
  cash_security_only.lower.check_reads = false;
  CompileOptions bcc_rce = mode_options(CheckMode::kBcc);
  bcc_rce.lower.eliminate_redundant_checks = true;
  add_grid(plan, {workloads::micro_suite(),
                  {mode_options(CheckMode::kNoCheck),
                   mode_options(CheckMode::kCash), cash_security_only,
                   mode_options(CheckMode::kBcc), bcc_rce,
                   mode_options(CheckMode::kBoundInsn),
                   mode_options(CheckMode::kEfence),
                   mode_options(CheckMode::kShadow)},
                  Action::kRun, {
      {"Ablation: checking strategies on the micro suite",
       "Program         GCC(Kcyc)      Cash  Cash-sec        BCC   BCC+RCE     "
       "bound    EFence   shadow*",
       {},
       [](const Workload& w, const Outcome* c, const Paper&) {
         const double base = cycles(c[0]);
         emit("%-14s %10.0f %8.2f%% %8.2f%% %9.1f%% %8.1f%% %8.1f%% %8.2f%% "
              "%8.1f%%\n",
              w.name.c_str(), base / 1000.0, overhead_pct(base, cycles(c[1])),
              overhead_pct(base, cycles(c[2])),
              overhead_pct(base, cycles(c[3])),
              overhead_pct(base, cycles(c[4])),
              overhead_pct(base, cycles(c[5])),
              overhead_pct(base, cycles(c[6])),
              overhead_pct(base, cycles(c[7])));
       }},
  }});
  multildt(plan);

  plan.printers.push_back(
      [](const Outcomes&) { emit_title("Extensions: beyond the paper"); });
  elision(plan);
  chaos(plan);
  tenants(plan);
}

std::vector<std::string> read_lines(std::istream&& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// 0 if `text` equals the expected file and every ```text block of
// EXPERIMENTS.md is a run of its lines; otherwise names the first offending
// line on stderr and returns 1.
int check(const std::filesystem::path& expected_path) {
  const std::filesystem::path doc_path =
      std::filesystem::absolute(expected_path).parent_path().parent_path() /
      "EXPERIMENTS.md";
  for (const auto& path : {expected_path, doc_path}) {
    if (!std::filesystem::is_regular_file(path)) {
      std::fprintf(stderr, "bench_paper: cannot read %s\n", path.c_str());
      return 1;
    }
  }
  const std::vector<std::string> got = read_lines(std::istringstream(text));
  const std::vector<std::string> want =
      read_lines(std::ifstream(expected_path));
  const auto [g, w] = std::ranges::mismatch(got, want);
  if (g != got.end() || w != want.end()) {
    std::fprintf(stderr,
                 "%s:%td: differs\n  expected: %s\n  got:      %s\n"
                 "Re-record with: build/bench/bench_paper > "
                 "bench/paper_expected.txt\n",
                 expected_path.c_str(), w - want.begin() + 1,
                 w != want.end() ? w->c_str() : "<end of file>",
                 g != got.end() ? g->c_str() : "<end of output>");
    return 1;
  }
  const std::vector<std::string> doc = read_lines(std::ifstream(doc_path));
  for (auto fence = doc.begin(); fence != doc.end(); ++fence) {
    if (*fence != "```text") {
      continue;
    }
    const auto end = std::find(fence + 1, doc.end(), "```");
    if (std::search(want.begin(), want.end(), fence + 1, end) == want.end()) {
      std::fprintf(stderr,
                   "%s:%td: this ```text block is not a verbatim slice of %s\n",
                   doc_path.c_str(), fence - doc.begin() + 1,
                   expected_path.c_str());
      return 1;
    }
    fence = end == doc.end() ? end - 1 : end;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [paper_expected.txt]\n", argv[0]);
    return 2;
  }
  Plan plan;
  plan_paper(plan);
  const Outcomes outcomes = plan.evaluate_all();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].error.empty()) {
      std::fprintf(stderr, "bench_paper: %s: %s\n", plan.cells[i].name.c_str(),
                   outcomes[i].error.c_str());
      return 1;
    }
  }
  for (const auto& print : plan.printers) {
    print(outcomes);
  }
  if (argc == 2) {
    return check(argv[1]);
  }
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}
