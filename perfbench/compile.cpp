// The `compile` workload: all 18 workload sources (micro, macro and network)
// compiled under gcc, bcc, cash, and cash with elide_checks. Nothing runs,
// so all host time goes to the frontend, ir, passes and vm-decode layers.
#include <cstdio>
#include <stdexcept>

#include "harness.hpp"
#include "ir/printer.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using cash::passes::CheckMode;

struct Config {
  const char* name;
  CheckMode mode;
  bool elide;
};

constexpr Config kConfigs[] = {
    {"gcc", CheckMode::kNoCheck, false},
    {"bcc", CheckMode::kBcc, false},
    {"cash", CheckMode::kCash, false},
    {"cash+elide", CheckMode::kCash, true},
};

struct Cell {
  const cash::workloads::Workload* workload{nullptr};
  std::string key;
  cash::CompileOptions options;
};

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (const auto* suite :
       {&cash::workloads::micro_suite(), &cash::workloads::macro_suite(),
        &cash::workloads::network_suite()}) {
    for (const cash::workloads::Workload& w : *suite) {
      for (const Config& config : kConfigs) {
        Cell c;
        c.workload = &w;
        c.key = w.name + "/" + config.name;
        c.options.lower.mode = config.mode;
        c.options.lower.elide_checks = config.elide;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

// lower_stats, elide_stats, code_size and a hash of the lowered IR text.
std::string program_canonical(const cash::CompiledProgram& p) {
  const cash::passes::LowerStats& l = p.lower_stats();
  const cash::passes::ElideStats& e = p.elide_stats();
  const cash::passes::CodeSize size = p.code_size();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "hw=%llu sw=%llu unchecked=%llu segld=%llu redundant=%llu outer=%llu "
      "spilled=%llu elided=%llu deleted=%llu hoisted=%llu widened=%llu "
      "hoist_ins=%llu widen_ins=%llu bytes=%llu app=%llu lib=%llu ir=%s",
      static_cast<unsigned long long>(l.hw_checks),
      static_cast<unsigned long long>(l.sw_checks),
      static_cast<unsigned long long>(l.unchecked_refs),
      static_cast<unsigned long long>(l.seg_loads),
      static_cast<unsigned long long>(l.redundant_eliminated),
      static_cast<unsigned long long>(l.outer_loops),
      static_cast<unsigned long long>(l.spilled_outer_loops),
      static_cast<unsigned long long>(l.elided_refs),
      static_cast<unsigned long long>(e.checks_deleted),
      static_cast<unsigned long long>(e.checks_hoisted),
      static_cast<unsigned long long>(e.checks_widened),
      static_cast<unsigned long long>(e.hoist_checks_inserted),
      static_cast<unsigned long long>(e.widen_checks_inserted),
      static_cast<unsigned long long>(size.total_bytes),
      static_cast<unsigned long long>(size.app_bytes),
      static_cast<unsigned long long>(size.library_bytes),
      fnv1a_hex(cash::ir::to_text(p.module())).c_str());
  return buf;
}

} // namespace

Outcome run_compile(Context& ctx, Tracer& tracer) {
  Outcome out;
  const std::vector<Cell> cells = make_cells();
  auto check = [&](const Cell& c, const cash::CompiledProgram& p) {
    ctx.check_digest(out, c.key, program_canonical(p));
  };

  // Set-up builds every cell's program once; those programs are the first
  // ones checked.
  HostProbe probe;
  Timings setup(1);
  std::vector<std::unique_ptr<cash::CompiledProgram>> programs(cells.size());
  const int setup_reps = ctx.trace || ctx.record ? 1 : kSetupReps;
  std::size_t probe_index = probe.sample();
  for (int rep = 0; rep < setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      programs[i] = compile_or_throw(cells[i].workload->source,
                                     cells[i].options);
    }
    setup.add(0, probe_index, seconds_between(start, Clock::now()));
    probe_index = probe.sample();
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    check(cells[i], *programs[i]);
  }
  programs.clear();

  Timings untraced(cells.size());
  std::vector<std::vector<double>> traced_wall(cells.size());
  std::vector<std::vector<double>> traced_self(cells.size());
  CompileCounts pass;            // one traced compile of every cell
  CompileCounts repeat;          // the other traced compiles
  std::vector<bool> counted(cells.size(), false);
  std::uint64_t compiles = 0;
  std::uint64_t elide_compiles = 0;
  int op = 0;
  visit_cells(cells.size(), ctx.seed, ctx.seconds, probe,
              [&](std::size_t i, std::size_t visit) {
    const Cell& c = cells[i];
    auto untraced_compile = [&] {
      const Clock::time_point start = Clock::now();
      std::unique_ptr<cash::CompiledProgram> p =
          compile_or_throw(c.workload->source, c.options);
      untraced.add(i, visit, seconds_between(start, Clock::now()));
      check(c, *p);
    };
    try {
      if (!tracer.enabled()) {
        untraced_compile();
        return;
      }
      // Alternate which of the pair runs first, so neither profits from the
      // host caches the other warmed.
      if (op % 2 == 0) {
        untraced_compile();
      }
      const std::size_t first = tracer.spans().size();
      const Clock::time_point traced_start = Clock::now();
      std::unique_ptr<cash::CompiledProgram> p = traced_compile(
          c.workload->source, c.options, tracer, op,
          counted[i] ? repeat : pass);
      traced_wall[i].push_back(seconds_between(traced_start, Clock::now()));
      traced_self[i].push_back(tracer.op_self_seconds(first, op));
      counted[i] = true;
      ++compiles;
      elide_compiles += c.options.lower.elide_checks ? 1 : 0;
      // The traced compile must build exactly what compile() builds.
      check(c, *p);
      if (op % 2 == 1) {
        untraced_compile();
      }
      ++op;
    } catch (const std::exception& e) {
      out.check(false, c.key + ": " + e.what());
    }
  });

  if (ctx.record) {
    return out;
  }

  if (!tracer.enabled()) {
    // One operation is one compile() call (compile_ms, in us).
    add_end_to_end(out, "compile", setup, untraced, probe);
    return out;
  }

  if (std::find(counted.begin(), counted.end(), false) != counted.end()) {
    std::printf("compile: not every cell was traced; the per-pass counts "
                "cover only the traced ones\n");
  }
  add_compile_layer_metrics(out, tracer, pass, compiles, elide_compiles,
                            pass.tokens + repeat.tokens);
  add_overhead_metrics(out, untraced.raw(), traced_wall, traced_self);
  return out;
}

} // namespace perfbench
