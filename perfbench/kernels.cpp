// The `kernels` workload: the six Table 1 micro kernels at the paper's sizes,
// compiled under bcc and cash. Each cell gets one machine and one
// prepare() + capture(), then a warm-up run, then timed restore() + run()
// with the default engine (trace tier). Long hot loops put nearly all host
// time in the vm engine and the memory path.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

#include "harness.hpp"
#include "vm/snapshot.hpp"
#include "workloads/reference.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using cash::passes::CheckMode;
using cash::vm::RunResult;

struct Cell {
  const cash::workloads::Workload* workload{nullptr};
  CheckMode mode{CheckMode::kCash};
  std::string key;
  std::unique_ptr<cash::CompiledProgram> program;
  std::unique_ptr<cash::vm::Machine> machine;
  std::unique_ptr<cash::vm::MachineSnapshot> snap;
  cash::paging::TlbStats tlb_seen; // cumulative host TLB stats so far
};

// Native checksum of each kernel at the size micro_suite() builds it with.
double reference_checksum(const std::string& name) {
  namespace ref = cash::workloads::reference;
  if (name == "SVDPACKC") return ref::svd(374, 82, 40);
  if (name == "Vol. Render.") return ref::volren(128, 256);
  if (name == "2D FFT") return ref::fft2d(64);
  if (name == "Gaus. Elim.") return ref::gauss(128);
  if (name == "Matrix Multi.") return ref::matmul(128);
  if (name == "Edge Detect") return static_cast<double>(ref::edge(1024, 768));
  throw std::runtime_error("no reference checksum for kernel " + name);
}

// Every simulated field the digest covers: cycles, breakdown, counters and
// output.
std::string run_canonical(const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "ok=%d exit=%d cycles=%llu base=%llu checking=%llu runtime=%llu "
      "shadow=%llu instr=%llu hw=%llu sw=%llu segld=%llu ptrcopy=%llu "
      "calls=%llu malloc=%llu out=",
      r.ok ? 1 : 0, r.exit_code, static_cast<unsigned long long>(r.cycles),
      static_cast<unsigned long long>(r.breakdown.base),
      static_cast<unsigned long long>(r.breakdown.checking),
      static_cast<unsigned long long>(r.breakdown.runtime),
      static_cast<unsigned long long>(r.shadow_cycles),
      static_cast<unsigned long long>(r.counters.instructions),
      static_cast<unsigned long long>(r.counters.hw_checked_accesses),
      static_cast<unsigned long long>(r.counters.sw_checks),
      static_cast<unsigned long long>(r.counters.seg_reg_loads),
      static_cast<unsigned long long>(r.counters.ptr_word_copies),
      static_cast<unsigned long long>(r.counters.calls),
      static_cast<unsigned long long>(r.counters.malloc_calls));
  std::string out = buf;
  for (char c : r.output) {
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out;
}

std::vector<Cell> build_cells(Tracer& tracer, CompileCounts& counts) {
  std::vector<Cell> cells;
  for (CheckMode mode : {CheckMode::kBcc, CheckMode::kCash}) {
    for (const cash::workloads::Workload& w : cash::workloads::micro_suite()) {
      Cell c;
      c.workload = &w;
      c.mode = mode;
      c.key = w.name + "/" + cash::passes::to_string(mode);
      cash::CompileOptions options;
      options.lower.mode = mode;
      c.program = tracer.enabled()
                      ? traced_compile(w.source, options, tracer, -1, counts)
                      : compile_or_throw(w.source, options);
      c.machine = c.program->make_machine();
      {
        SpanScope span(tracer, "vm.prepare", -1);
        c.machine->prepare();
      }
      SpanScope span(tracer, "vm.capture", -1);
      c.snap = c.machine->capture();
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

// Counts of one run that the traced run reports, summed over cells.
struct RunCounts {
  std::uint64_t instructions{0};
  std::uint64_t sw_checks{0};
  std::uint64_t hw_checked{0};
  std::uint64_t seg_reg_loads{0};
  std::uint64_t traces_formed{0};
  std::uint64_t trace_execs{0};
  std::uint64_t guard_exits{0};
  std::uint64_t trace_instructions{0};
  std::uint64_t tlb_hits{0};
  std::uint64_t tlb_misses{0};
  std::uint64_t tlb_flushes{0};

  RunCounts& operator+=(const RunCounts& o) {
    instructions += o.instructions;
    sw_checks += o.sw_checks;
    hw_checked += o.hw_checked;
    seg_reg_loads += o.seg_reg_loads;
    traces_formed += o.traces_formed;
    trace_execs += o.trace_execs;
    guard_exits += o.guard_exits;
    trace_instructions += o.trace_instructions;
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    tlb_flushes += o.tlb_flushes;
    return *this;
  }
};

// One timed operation: rewind the cell to its post-load image and run main;
// `counts`, when given, receives the run's counts. Restore rewinds the
// trace-engine state with the rest of the machine, so trace statistics
// describe this run alone; TLB statistics are host-side and cumulative, so
// the run's share is the difference.
RunResult run_cell(Cell& c, Tracer& tracer, int op, RunCounts* counts) {
  {
    SpanScope span(tracer, "vm.restore", op);
    c.machine->restore(*c.snap);
  }
  RunResult r;
  {
    SpanScope span(tracer, "vm.run", op);
    r = c.machine->run();
  }
  if (counts != nullptr) {
    *counts = {r.counters.instructions,
               r.counters.sw_checks,
               r.counters.hw_checked_accesses,
               r.counters.seg_reg_loads,
               r.trace_stats.traces_formed,
               r.trace_stats.trace_execs,
               r.trace_stats.guard_exits,
               r.trace_stats.trace_instructions,
               r.tlb_stats.hits - c.tlb_seen.hits,
               r.tlb_stats.misses - c.tlb_seen.misses,
               r.tlb_stats.flushes - c.tlb_seen.flushes};
  }
  c.tlb_seen = r.tlb_stats;
  return r;
}

// Checks one run against the recorded digest; a throw counts as a failure.
template <typename Fn>
void checked_run(Context& ctx, Outcome& out, Cell& c, Fn&& fn) {
  try {
    const RunResult r = fn();
    ctx.check_digest(out, c.key, run_canonical(r));
  } catch (const std::exception& e) {
    out.check(false, c.key + ": " + e.what());
  }
}

struct Tier {
  const char* metric;
  bool predecode;
  bool fusion;
  bool trace;
};

constexpr Tier kTiers[] = {
    {"vm.tier.interp.mips", false, false, false},
    {"vm.tier.plain.mips", true, false, false},
    {"vm.tier.fused.mips", true, true, false},
    {"vm.tier.trace.mips", true, true, true},
};

// One warm-up and one timed run of every cell per engine tier, selected
// through MachineConfig, with a cell's four tiers back to back so a change
// in host speed between cells does not bias one tier. Every tier must
// reproduce the recorded digest.
void measure_tiers(Context& ctx, Outcome& out, std::vector<Cell>& cells) {
  std::vector<double> mips[std::size(kTiers)];
  Tracer off(false);
  for (Cell& c : cells) {
    for (std::size_t t = 0; t < std::size(kTiers); ++t) {
      cash::vm::MachineConfig config = c.program->options().machine;
      config.enable_predecode = kTiers[t].predecode;
      config.enable_fusion = kTiers[t].fusion;
      config.enable_trace = kTiers[t].trace;
      Cell tier;
      tier.machine = c.program->make_machine(config);
      tier.machine->prepare();
      tier.snap = tier.machine->capture();
      (void)run_cell(tier, off, -1, nullptr);
      const Clock::time_point start = Clock::now();
      const RunResult r = run_cell(tier, off, -1, nullptr);
      const double s = seconds_between(start, Clock::now());
      mips[t].push_back(static_cast<double>(r.counters.instructions) / s /
                        1e6);
      ctx.check_digest(out, c.key, run_canonical(r));
    }
  }
  for (std::size_t t = 0; t < std::size(kTiers); ++t) {
    out.add(kTiers[t].metric, geomean(mips[t]), "Minstr/s");
  }
}

} // namespace

Outcome run_kernels(Context& ctx, Tracer& tracer) {
  Outcome out;
  CompileCounts compile_counts;
  HostProbe probe;
  std::vector<Cell> cells;
  Timings setup(1);
  const int setup_reps = ctx.trace || ctx.record ? 1 : kSetupReps;
  std::size_t probe_index = probe.sample();
  for (int rep = 0; rep < setup_reps; ++rep) {
    cells.clear();
    const Clock::time_point start = Clock::now();
    cells = build_cells(tracer, compile_counts);
    setup.add(0, probe_index, seconds_between(start, Clock::now()));
    probe_index = probe.sample();
  }

  // Warm-up: one untimed run per cell, checked like every timed run.
  Tracer off(false);
  std::vector<std::string> warm_output(cells.size());
  std::vector<std::uint64_t> instructions(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    checked_run(ctx, out, cells[i], [&] {
      RunResult r = run_cell(cells[i], off, -1, nullptr);
      warm_output[i] = r.output;
      instructions[i] = r.counters.instructions;
      return r;
    });
  }

  Timings untraced(cells.size());
  std::vector<std::vector<double>> traced_wall(cells.size());
  std::vector<std::vector<double>> traced_self(cells.size());
  std::vector<std::vector<double>> run_ms(cells.size());
  std::vector<RunCounts> counts(cells.size());
  int op = 0;
  visit_cells(cells.size(), ctx.seed, ctx.seconds, probe,
              [&](std::size_t i, std::size_t visit) {
    Cell& c = cells[i];
    auto untraced_op = [&] {
      checked_run(ctx, out, c, [&] {
        const Clock::time_point start = Clock::now();
        RunResult r = run_cell(c, off, -1, nullptr);
        untraced.add(i, visit, seconds_between(start, Clock::now()));
        return r;
      });
    };
    if (!tracer.enabled()) {
      untraced_op();
      return;
    }
    auto traced_op = [&] {
      checked_run(ctx, out, c, [&] {
        const std::size_t first = tracer.spans().size();
        const Clock::time_point start = Clock::now();
        RunResult r = run_cell(c, tracer, op, &counts[i]);
        traced_wall[i].push_back(seconds_between(start, Clock::now()));
        traced_self[i].push_back(tracer.op_self_seconds(first, op));
        run_ms[i].push_back(
            tracer.duration_s(static_cast<int>(tracer.spans().size() - 1)) *
            1e3);
        return r;
      });
    };
    // Alternate which of the pair runs first, so neither profits from the
    // host caches the other warmed.
    if (op % 2 == 0) {
      untraced_op();
      traced_op();
    } else {
      traced_op();
      untraced_op();
    }
    ++op;
  });

  // Independent check of every kernel's printed checksum.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string& name = cells[i].workload->name;
    const double want = reference_checksum(name);
    const double got = std::strtod(warm_output[i].c_str(), nullptr);
    const double tolerance =
        name == "Edge Detect"
            ? 0.0
            : 1e-4 * std::max(1.0, std::max(std::abs(want), std::abs(got)));
    char what[160];
    std::snprintf(what, sizeof what,
                  "%s: checksum %.9g differs from the native reference %.9g",
                  cells[i].key.c_str(), got, want);
    out.check(std::abs(got - want) <= tolerance, what);
  }

  if (ctx.record) {
    return out;
  }

  if (!tracer.enabled()) {
    add_end_to_end(out, "kernels", setup, untraced, probe);
    // Instruction counts are fixed per cell, so simulated MIPS is op_us as
    // a rate: sim_mips = geomean(instructions) / op_us.
    const std::vector<std::vector<double>> norm = untraced.normalized(probe);
    const std::vector<std::vector<double>> raw = untraced.raw();
    std::vector<double> mips;
    std::vector<double> raw_mips;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!raw[i].empty()) {
        const auto n = static_cast<double>(instructions[i]);
        mips.push_back(n / median(norm[i]) / 1e6);
        raw_mips.push_back(n / median(raw[i]) / 1e6);
      }
    }
    std::printf("sim_mips = %.1f Minstr/s (raw host time: %.1f)\n",
                geomean(mips), geomean(raw_mips));
    return out;
  }

  add_compile_layer_metrics(out, tracer, compile_counts, cells.size(), 0,
                            compile_counts.tokens);
  add_overhead_metrics(out, untraced.raw(), traced_wall, traced_self);
  // One traced run of every cell: the last one of each.
  RunCounts sum;
  for (const RunCounts& c : counts) {
    sum += c;
  }
  out.add("vm.run_ms", geomean_of_medians(run_ms, 1), "ms");
  out.add("vm.instructions", static_cast<double>(sum.instructions), "count");
  out.add("vm.trace.coverage", ratio(sum.trace_instructions, sum.instructions),
          "ratio");
  out.add("vm.trace.formed", static_cast<double>(sum.traces_formed), "count");
  out.add("vm.trace.guard_exits_per_exec",
          ratio(sum.guard_exits, sum.trace_execs), "ratio");
  out.add("vm.prepare_ms", tracer.mean_self("vm.prepare", 1e3), "ms");
  out.add("vm.capture_us", tracer.mean_self("vm.capture", 1e6), "us");
  out.add("vm.restore_us", tracer.mean_self("vm.restore", 1e6), "us");
  out.add("paging.tlb.hit_rate",
          ratio(sum.tlb_hits, sum.tlb_hits + sum.tlb_misses), "ratio");
  out.add("paging.tlb.flushes", static_cast<double>(sum.tlb_flushes), "count");
  out.add("vm.sw_checks", static_cast<double>(sum.sw_checks), "count");
  out.add("vm.hw_checked_accesses", static_cast<double>(sum.hw_checked),
          "count");
  out.add("vm.seg_reg_loads", static_cast<double>(sum.seg_reg_loads), "count");
  measure_tiers(ctx, out, cells);
  return out;
}

} // namespace perfbench
