// Engine-grid transparency gate: each loop kernel, compiled once, must give
// bit-identical simulated results on all four execution engines — hot-trace
// superblocks (the default), the fused superinstruction stream
// (enable_trace = false), the unfused plain stream (enable_fusion = false)
// and the reference interpreter (enable_predecode = false). Each kernel must
// also exercise the fast tiers: a nonzero fusion hit rate and a nonzero
// share of instructions retired inside traces. $CASH_NO_TRACE must behave
// exactly like enable_trace = false.
//
// The cells are the six micro kernels at small sizes, each under two check
// modes, so that together they cover every lowering. Machines run the way a
// forked server does: built and loaded once, then restore() + run() from the
// post-load image, twice, so the second run starts from a machine that has
// already formed traces.
#include <gtest/gtest.h>

#include <cstdlib>
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
};

enum class Engine { kTrace, kFused, kPlain, kInterp };

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kTrace: return "trace";
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
  cfg.enable_trace = engine == Engine::kTrace;
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

class EngineGrid : public testing::TestWithParam<Cell> {
 protected:
  void SetUp() override {
    CompileOptions options;
    options.lower.mode = GetParam().mode;
    CompileResult compiled = compile(GetParam().source(), options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    program_ = std::move(compiled.program);
  }

  std::unique_ptr<CompiledProgram> program_;
};

TEST_P(EngineGrid, AllFourEnginesAgree) {
  const std::vector<vm::RunResult> reference =
      run_restored(*program_, Engine::kInterp, 2);
  for (const vm::RunResult& run : reference) {
    ASSERT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  }
  for (Engine engine : {Engine::kTrace, Engine::kFused, Engine::kPlain}) {
    const std::vector<vm::RunResult> fast = run_restored(*program_, engine, 2);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      expect_identical(reference[i], fast[i],
                       std::string(engine_name(engine)) + " run " +
                           std::to_string(i + 1));
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

TEST_P(EngineGrid, NoTraceEnvMatchesTraceOff) {
  const vm::RunResult trace_off = run_restored(*program_, Engine::kFused, 1)[0];
  ::setenv("CASH_NO_TRACE", "1", 1);
  const vm::RunResult killed = run_restored(*program_, Engine::kTrace, 1)[0];
  ::unsetenv("CASH_NO_TRACE");
  expect_identical(trace_off, killed, "CASH_NO_TRACE");
  EXPECT_EQ(killed.trace_stats.traces_formed, 0u);
  EXPECT_EQ(killed.trace_stats.trace_execs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, EngineGrid, testing::ValuesIn(kCells),
                         [](const testing::TestParamInfo<Cell>& info) {
                           return std::string(info.param.name);
                         });

} // namespace
} // namespace cash
