// Engine-grid transparency gate: each loop kernel must give bit-identical
// simulated results on all four execution engines — hot-trace superblocks
// (the default), the fused superinstruction stream (enable_trace = false),
// the unfused plain stream (enable_fusion = false) and the reference
// interpreter (enable_predecode = false) — and on traces spliced from the
// plain stream (enable_fusion = false, enable_trace = true). Each kernel is
// compiled twice, with check elision off and on, and every engine must
// agree on both programs. Each kernel must also exercise the fast tiers: a
// nonzero fusion hit rate and a nonzero share of instructions retired
// inside traces.
//
// The cells are the six micro kernels at small sizes, each under two check
// modes, so that together they cover every lowering, plus a deep recursion
// under cash and bcc that exercises the call stack. Machines run the way a
// forked server does: built and loaded once, then restore() + run() from the
// post-load image, twice, so the second run starts from a machine that has
// already formed traces.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/cash.hpp"
#include "vm/decode.hpp"
#include "vm/snapshot.hpp"
#include "workloads/workloads.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;
using vm::expect_identical;

struct Cell {
  const char* name;
  CheckMode mode;
  std::string (*source)();
};

// ctest shows the parameter next to the case name, so print the check
// mode rather than the struct's bytes (which hold pointers).
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << to_string(cell.mode);
}

// Each frame walks its caller's array into a local array of its own, so
// a call takes a pointer argument and sets up and tears down an array; at
// 3,000 frames deep the call stack's arenas regrow in the middle of calls.
std::string recurse_source() {
  return R"(
int walk(int *p, int depth) {
  int local[8];
  int i; int s = 0;
  for (i = 0; i < 8; i++) {
    local[i] = p[i] + depth;
  }
  if (depth > 0) {
    s = walk(local, depth - 1);
  }
  for (i = 0; i < 8; i++) {
    s = s + local[i];
  }
  return s;
}
int main() {
  int seed[8];
  int i;
  for (i = 0; i < 8; i++) {
    seed[i] = i;
  }
  print_int(walk(seed, 3000));
  return 0;
}
)";
}

const Cell kCells[] = {
    {"matmul_cash", CheckMode::kCash,
     [] { return workloads::matmul_source(16); }},
    {"gauss_efence", CheckMode::kEfence,
     [] { return workloads::gauss_source(16); }},
    {"gauss_bcc", CheckMode::kBcc,
     [] { return workloads::gauss_source(16); }},
    {"fft2d_shadow", CheckMode::kShadow,
     [] { return workloads::fft2d_source(8); }},
    {"fft2d_gcc", CheckMode::kNoCheck,
     [] { return workloads::fft2d_source(8); }},
    {"edge_bound", CheckMode::kBoundInsn,
     [] { return workloads::edge_source(48, 32); }},
    {"edge_shadow", CheckMode::kShadow,
     [] { return workloads::edge_source(48, 32); }},
    {"volren_bcc", CheckMode::kBcc,
     [] { return workloads::volren_source(12, 24); }},
    {"volren_bound", CheckMode::kBoundInsn,
     [] { return workloads::volren_source(12, 24); }},
    {"svd_gcc", CheckMode::kNoCheck,
     [] { return workloads::svd_source(16, 12, 3); }},
    {"svd_efence", CheckMode::kEfence,
     [] { return workloads::svd_source(16, 12, 3); }},
    {"recurse_cash", CheckMode::kCash, recurse_source},
    {"recurse_bcc", CheckMode::kBcc, recurse_source},
};

enum class Engine { kTrace, kTracePlain, kFused, kPlain, kInterp };

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kTrace: return "trace";
    case Engine::kTracePlain: return "trace-over-plain";
    case Engine::kFused: return "fused";
    case Engine::kPlain: return "plain";
    case Engine::kInterp: return "interpreter";
  }
  return "?";
}

// Builds the machine and loads the program once, then runs main() `runs`
// times, each from the post-load image.
std::vector<vm::RunResult> run_restored(const CompiledProgram& program,
                                        Engine engine, int runs) {
  vm::MachineConfig cfg = program.options().machine;
  cfg.enable_predecode = engine != Engine::kInterp;
  cfg.enable_fusion = engine == Engine::kTrace || engine == Engine::kFused;
  cfg.enable_trace = engine == Engine::kTrace || engine == Engine::kTracePlain;
  const std::unique_ptr<vm::Machine> machine = program.make_machine(cfg);
  machine->prepare();
  const std::unique_ptr<vm::MachineSnapshot> image = machine->capture();
  std::vector<vm::RunResult> results;
  for (int i = 0; i < runs; ++i) {
    machine->restore(*image);
    results.push_back(machine->run());
  }
  return results;
}

std::unique_ptr<CompiledProgram> compile_cell(const Cell& cell,
                                              bool elide_checks) {
  CompileOptions options;
  options.lower.mode = cell.mode;
  options.lower.elide_checks = elide_checks;
  CompileResult compiled = compile(cell.source(), options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return std::move(compiled.program);
}

class EngineGrid : public testing::TestWithParam<Cell> {
 protected:
  void SetUp() override {
    program_ = compile_cell(GetParam(), false);
    ASSERT_NE(program_, nullptr);
  }

  std::unique_ptr<CompiledProgram> program_;
};

TEST_P(EngineGrid, AllFourEnginesAgree) {
  const std::unique_ptr<CompiledProgram> elided =
      compile_cell(GetParam(), true);
  ASSERT_NE(elided, nullptr);
  for (const CompiledProgram* program : {program_.get(), elided.get()}) {
    const std::string label =
        program->options().lower.elide_checks ? "elided " : "";
    const std::vector<vm::RunResult> reference =
        run_restored(*program, Engine::kInterp, 2);
    for (const vm::RunResult& run : reference) {
      ASSERT_TRUE(run.ok) << label
                          << (run.fault ? run.fault->detail : run.error);
    }
    for (Engine engine : {Engine::kTrace, Engine::kTracePlain, Engine::kFused,
                          Engine::kPlain}) {
      const std::vector<vm::RunResult> fast = run_restored(*program, engine, 2);
      for (std::size_t i = 0; i < fast.size(); ++i) {
        expect_identical(reference[i], fast[i],
                         label + engine_name(engine) + " run " +
                             std::to_string(i + 1));
      }
    }
  }
}

TEST_P(EngineGrid, FusionMatchesTheKernel) {
  ASSERT_NE(program_->decoded(), nullptr);
  ASSERT_TRUE(program_->decoded()->ok());
  EXPECT_GT(program_->decoded()->fusion_stats().hit_rate(), 0.0);
}

TEST_P(EngineGrid, TracesCoverTheKernel) {
  const vm::TraceStats stats =
      run_restored(*program_, Engine::kTrace, 1)[0].trace_stats;
  EXPECT_GT(stats.traces_formed, 0u);
  EXPECT_GT(stats.coverage, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, EngineGrid, testing::ValuesIn(kCells),
                         [](const testing::TestParamInfo<Cell>& info) {
                           return std::string(info.param.name);
                         });

} // namespace
} // namespace cash
