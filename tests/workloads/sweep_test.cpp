// Parameterised size sweeps: each micro kernel validated against its native
// reference across a range of sizes and modes — the property backing the
// Table 3 scaling study.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>

#include "core/cash.hpp"
#include "workloads/reference.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

using passes::CheckMode;

double run_and_parse(const std::string& source, CheckMode mode) {
  CompileOptions options;
  options.lower.mode = mode;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  vm::RunResult run = compiled.program->run();
  EXPECT_TRUE(run.ok) << (run.fault ? run.fault->detail : run.error);
  return std::strtod(run.output.c_str(), nullptr);
}

void expect_close(double expected, double actual, double rel) {
  EXPECT_NEAR(expected, actual,
              rel * std::max(1.0, std::max(std::abs(expected),
                                           std::abs(actual))));
}

struct SweepCase {
  int size;
  CheckMode mode;
};

// ctest shows the parameter next to the case name, so print it rather than
// the struct's bytes (three of which are uninitialised padding).
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << to_string(c.mode) << " size " << c.size;
}

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(to_string(info.param.mode)) + "_" +
         std::to_string(info.param.size);
}

class MatmulSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(MatmulSweep, MatchesReference) {
  expect_close(workloads::reference::matmul(GetParam().size),
               run_and_parse(workloads::matmul_source(GetParam().size),
                             GetParam().mode),
               1e-4);
}
INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulSweep,
    testing::Values(SweepCase{8, CheckMode::kNoCheck},
                    SweepCase{8, CheckMode::kCash},
                    SweepCase{17, CheckMode::kCash},  // non-power-of-two
                    SweepCase{17, CheckMode::kBcc},
                    SweepCase{32, CheckMode::kCash},
                    SweepCase{32, CheckMode::kShadow},
                    SweepCase{48, CheckMode::kNoCheck},
                    SweepCase{48, CheckMode::kCash}),
    case_name);

class GaussSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(GaussSweep, MatchesReference) {
  expect_close(workloads::reference::gauss(GetParam().size),
               run_and_parse(workloads::gauss_source(GetParam().size),
                             GetParam().mode),
               1e-4);
}
INSTANTIATE_TEST_SUITE_P(
    Sizes, GaussSweep,
    testing::Values(SweepCase{5, CheckMode::kCash},
                    SweepCase{12, CheckMode::kCash},
                    SweepCase{12, CheckMode::kBcc},
                    SweepCase{33, CheckMode::kCash},
                    SweepCase{33, CheckMode::kEfence}),
    case_name);

class FftSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(FftSweep, MatchesReference) {
  expect_close(workloads::reference::fft2d(GetParam().size),
               run_and_parse(workloads::fft2d_source(GetParam().size),
                             GetParam().mode),
               1e-3);
}
INSTANTIATE_TEST_SUITE_P(Sizes, FftSweep,
                         testing::Values(SweepCase{4, CheckMode::kCash},
                                         SweepCase{8, CheckMode::kCash},
                                         SweepCase{8, CheckMode::kBcc},
                                         SweepCase{32, CheckMode::kCash}),
                         case_name);

class EdgeSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(EdgeSweep, MatchesReference) {
  const int n = GetParam().size;
  EXPECT_EQ(static_cast<double>(workloads::reference::edge(n, n * 3 / 4)),
            run_and_parse(workloads::edge_source(n, n * 3 / 4),
                          GetParam().mode));
}
INSTANTIATE_TEST_SUITE_P(Sizes, EdgeSweep,
                         testing::Values(SweepCase{16, CheckMode::kCash},
                                         SweepCase{40, CheckMode::kCash},
                                         SweepCase{40, CheckMode::kBcc},
                                         SweepCase{64, CheckMode::kNoCheck}),
                         case_name);

class SvdSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(SvdSweep, MatchesReference) {
  const int m = GetParam().size;
  const int n = std::max(2, m / 4);
  expect_close(workloads::reference::svd(m, n, 12),
               run_and_parse(workloads::svd_source(m, n, 12),
                             GetParam().mode),
               1e-3);
}
INSTANTIATE_TEST_SUITE_P(Sizes, SvdSweep,
                         testing::Values(SweepCase{16, CheckMode::kCash},
                                         SweepCase{40, CheckMode::kCash},
                                         SweepCase{40, CheckMode::kBcc},
                                         SweepCase{64, CheckMode::kCash}),
                         case_name);

class VolrenSweep : public testing::TestWithParam<SweepCase> {};
TEST_P(VolrenSweep, MatchesReference) {
  const int n = GetParam().size;
  expect_close(workloads::reference::volren(n, n * 2),
               run_and_parse(workloads::volren_source(n, n * 2),
                             GetParam().mode),
               1e-4);
}
INSTANTIATE_TEST_SUITE_P(Sizes, VolrenSweep,
                         testing::Values(SweepCase{8, CheckMode::kCash},
                                         SweepCase{12, CheckMode::kBcc},
                                         SweepCase{24, CheckMode::kCash}),
                         case_name);

// The Table 3 scaling property itself: Cash's relative overhead shrinks as
// the matrix grows.
TEST(ScalingProperty, CashRelativeOverheadDecreasesWithSize) {
  double previous = 1e9;
  for (int n : {16, 32, 64}) {
    CompileOptions gcc_opt;
    gcc_opt.lower.mode = CheckMode::kNoCheck;
    CompileOptions cash_opt;
    cash_opt.lower.mode = CheckMode::kCash;
    auto gcc = compile(workloads::matmul_source(n), gcc_opt);
    auto cash_p = compile(workloads::matmul_source(n), cash_opt);
    ASSERT_TRUE(gcc.ok() && cash_p.ok());
    const auto g = gcc.program->run();
    const auto c = cash_p.program->run();
    ASSERT_TRUE(g.ok && c.ok);
    const double overhead =
        (static_cast<double>(c.cycles) - static_cast<double>(g.cycles)) /
        static_cast<double>(g.cycles);
    EXPECT_LT(overhead, previous) << n;
    previous = overhead;
  }
}

} // namespace
} // namespace cash
