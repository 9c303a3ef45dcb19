// Tests of the per-function cycle profiler: call counts, self-cycle
// attribution, and completeness (the spans sum back to the total), each on
// both engines.
#include <gtest/gtest.h>

#include <vector>

#include "core/cash.hpp"

namespace cash {
namespace {

constexpr const char* kProgram = R"(
int cheap(int x) { return x + 1; }
int expensive(int x) {
  int i; int s = 0;
  for (i = 0; i < 500; i++) {
    s = s + i * x;
  }
  return s;
}
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i++) {
    s = s + cheap(i);
  }
  s = s + expensive(3);
  return s;
}
)";

// Runs `source` on the micro-op engine and on the reference interpreter;
// both keep the profile through the one call stack they share.
std::vector<vm::RunResult> run(const char* source) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kNoCheck;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  std::vector<vm::RunResult> results;
  for (bool predecode : {true, false}) {
    vm::MachineConfig cfg = compiled.program->options().machine;
    cfg.enable_predecode = predecode;
    results.push_back(compiled.program->make_machine(cfg)->run());
  }
  return results;
}

TEST(Profile, CountsCallsPerFunction) {
  for (const vm::RunResult& r : run(kProgram)) {
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.profile.count("main"), 1U);
    ASSERT_EQ(r.profile.count("cheap"), 1U);
    ASSERT_EQ(r.profile.count("expensive"), 1U);
    EXPECT_EQ(r.profile.at("main").calls, 1U);
    EXPECT_EQ(r.profile.at("cheap").calls, 10U);
    EXPECT_EQ(r.profile.at("expensive").calls, 1U);
  }
}

TEST(Profile, ExpensiveFunctionDominates) {
  for (const vm::RunResult& r : run(kProgram)) {
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.profile.at("expensive").self_cycles,
              r.profile.at("cheap").self_cycles * 5);
  }
}

TEST(Profile, SelfCyclesSumToTotal) {
  for (const vm::RunResult& r : run(kProgram)) {
    ASSERT_TRUE(r.ok);
    std::uint64_t sum = 0;
    for (const auto& [name, prof] : r.profile) {
      sum += prof.self_cycles;
    }
    EXPECT_EQ(sum, r.cycles);
  }
}

TEST(Profile, UncalledFunctionsAreAbsent) {
  for (const vm::RunResult& r : run(R"(
int never(int x) { return x; }
int main() { return 0; }
)")) {
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.profile.count("never"), 0U);
    EXPECT_EQ(r.profile.count("main"), 1U);
  }
}

TEST(Profile, RecursionAttributesToOneEntry) {
  for (const vm::RunResult& r : run(R"(
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
)")) {
    ASSERT_TRUE(r.ok);
    // fib(12) makes 465 calls.
    EXPECT_EQ(r.profile.at("fib").calls, 465U);
    EXPECT_GT(r.profile.at("fib").self_cycles,
              r.profile.at("main").self_cycles);
  }
}

} // namespace
} // namespace cash
