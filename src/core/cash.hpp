#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "ir/function.hpp"
#include "passes/code_size.hpp"
#include "passes/elide.hpp"
#include "passes/lower.hpp"
#include "passes/program_stats.hpp"
#include "vm/machine.hpp"

// Public API of the Cash reproduction.
//
// Typical use:
//
//   cash::CompileOptions options;
//   options.lower.mode = cash::passes::CheckMode::kCash;
//   cash::CompileResult compiled = cash::compile(source, options);
//   if (!compiled.ok()) { ... compiled.error ... }
//   cash::vm::RunResult run = compiled.program->run();
//
// The same source can be compiled under CheckMode::kNoCheck (the GCC
// baseline), kBcc (software checks) and kCash (segment-hardware checks) to
// reproduce the paper's three-way comparisons.
namespace cash {

struct CompileOptions {
  passes::LowerOptions lower;
  vm::MachineConfig machine;
  bool optimize{true};     // -O9-style scalar opts before lowering (all
                           // modes; the paper compiles at the highest level)
  bool run_verifier{true}; // verify IR after generation and after lowering
};

// A compiled MiniC program: lowered IR plus everything needed to run it and
// to compute the paper's static metrics.
//
// Thread-safety contract: a CompiledProgram is immutable after compile()
// returns, and every accessor below is const. Concurrent make_machine()
// calls from many host threads are safe — each Machine owns its entire
// simulated state (kernel, physical memory, page tables, segmentation
// unit, heap) and shares only the const ir::Module. This is what lets the
// parallel executor (exec/executor.hpp) fan simulated processes out across
// host cores: one shared program, one fresh Machine per slot. Do not add
// non-const state here without revisiting that contract. In particular the
// hot-trace superblock cache (DESIGN.md §11) lives per-Machine, NOT here:
// the shared DecodedProgram stays immutable, each machine forms and caches
// its own traces from its own deterministic counters, and because
// promotion is a pure function of the simulated stream, every machine
// running the same workload forms the same traces — no cross-thread
// sharing is needed for the results to agree.
class CompiledProgram {
 public:
  CompiledProgram(std::unique_ptr<ir::Module> module, CompileOptions options,
                  std::string source, passes::LowerStats lower_stats,
                  passes::ElideStats elide_stats = {});
  ~CompiledProgram(); // out of line: DecodedProgram is incomplete here

  const ir::Module& module() const noexcept { return *module_; }
  const CompileOptions& options() const noexcept { return options_; }

  // Static instrumentation statistics (the "HW/SW Checks" of Table 1).
  const passes::LowerStats& lower_stats() const noexcept {
    return lower_stats_;
  }

  // What the elision pass removed (all zero unless lower.elide_checks was on).
  const passes::ElideStats& elide_stats() const noexcept {
    return elide_stats_;
  }

  // Static binary-size model (Tables 2 and 6).
  passes::CodeSize code_size() const {
    return passes::estimate_code_size(*module_, options_.lower);
  }

  // Loop/array characteristics (Tables 4 and 7).
  passes::ProgramStats program_stats(int seg_reg_budget = 3) const {
    return passes::compute_program_stats(*module_, source_, seg_reg_budget);
  }

  // Creates a fresh simulated machine (process) for this program. The
  // machine gets the pre-decoded micro-op image (see vm/decode.hpp) built
  // once at compile time; config.enable_predecode selects between it and
  // the reference interpreter.
  std::unique_ptr<vm::Machine> make_machine() const {
    return std::make_unique<vm::Machine>(*module_, options_.machine,
                                         decoded_.get());
  }

  // Same, but with an explicit machine configuration — used to vary the
  // seed or attach a fault-injection plan without recompiling. The program
  // must still have been lowered for config.mode.
  std::unique_ptr<vm::Machine> make_machine(
      const vm::MachineConfig& config) const {
    return std::make_unique<vm::Machine>(*module_, config, decoded_.get());
  }

  // The pre-decoded micro-op image (null only if predecoding was skipped;
  // an image that failed validation is kept, with ok() == false).
  const vm::DecodedProgram* decoded() const noexcept { return decoded_.get(); }

  // Convenience: fresh machine, run main() once.
  vm::RunResult run() const { return make_machine()->run(); }

 private:
  std::unique_ptr<ir::Module> module_;
  CompileOptions options_;
  std::string source_;
  passes::LowerStats lower_stats_;
  passes::ElideStats elide_stats_;
  std::unique_ptr<const vm::DecodedProgram> decoded_;
};

struct CompileResult {
  std::unique_ptr<CompiledProgram> program;
  std::string error; // diagnostics when compilation failed

  bool ok() const noexcept { return program != nullptr; }
};

// Front end + checking-mode lowering + IR verification.
CompileResult compile(std::string_view source,
                      const CompileOptions& options = {});

} // namespace cash
