// Runs the built cashc binary as a user would: its exit codes and the
// `path value` lines of --stats.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct Outcome {
  int status{-1};
  std::string out; // stdout; stderr is dropped
};

// Runs `cashc <args>` on `source` through the shell, after `limits`.
Outcome cashc(const std::string& args, const std::string& source,
              const std::string& limits = "") {
  const std::string path =
      testing::TempDir() + "cashc_test_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".mc";
  std::ofstream(path) << source;
  const std::string command =
      limits + " exec " CASHC_PATH " " + args + " " + path + " 2>/dev/null";
  Outcome run;
  FILE* pipe = popen(command.c_str(), "r");
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    run.out.append(buf, n);
  }
  const int status = pclose(pipe);
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

bool has_line(const Outcome& run, const std::string& start) {
  return ("\n" + run.out).find("\n" + start) != std::string::npos;
}

TEST(Cashc, CleanProgramPrintsItsStatsAndExitsZero) {
  const Outcome run = cashc("--mode=cash --stats", R"(
int a[10];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) { a[i] = i; s = s + a[i]; }
  print_int(s);
  return 0;
}
)");
  EXPECT_EQ(run.status, 0) << run.out;
  for (const char* line :
       {"lower.hw_checks 2\n", "elide.checks_deleted 0\n", "code_size.",
        "45\n", "ok true\n", "counters.sw_checks 0\n",
        "counters.hw_checked_accesses 20\n", "segment_stats.cache_hits 0\n",
        "breakdown.checking ", "profile[main].calls 1\n",
        "output \"45\\n\"\n"}) {
    EXPECT_TRUE(has_line(run, line)) << line << run.out;
  }
  // Static stats before the run, the RunResult after it.
  EXPECT_LT(run.out.find("lower."), run.out.find("\ncycles "));
  EXPECT_FALSE(has_line(run, "fault.")) << run.out;
}

TEST(Cashc, CompileErrorExitsOne) {
  const Outcome run = cashc("--stats", "int main() { return x; }\n");
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.out, "");
}

TEST(Cashc, UsageErrorExitsTwo) {
  EXPECT_EQ(cashc("--mode=nonsense", "int main() { return 0; }").status, 2);
}

TEST(Cashc, InLoopOverrunIsASimulatedFault) {
  const Outcome run = cashc("--mode=cash --stats", R"(
int a[10];
int main() {
  int i;
  for (i = 0; i <= 10; i = i + 1) { a[i] = i; }
  return 0;
}
)");
  EXPECT_EQ(run.status, 139) << run.out;
  EXPECT_TRUE(has_line(run, "ok false\n")) << run.out;
  EXPECT_TRUE(has_line(run, "fault.kind \"#GP")) << run.out;
  EXPECT_TRUE(has_line(run, "counters.hw_checked_accesses 11\n")) << run.out;
}

TEST(Cashc, MainReturning139IsNotAFault) {
  // A nonzero return from main exits 3, whatever its value, so it never
  // reads as one of cashc's own outcomes; --stats still shows the value.
  const Outcome run = cashc("--mode=cash --stats", R"(
int main() {
  return 139;
}
)");
  EXPECT_EQ(run.status, 3) << run.out;
  EXPECT_TRUE(has_line(run, "ok true\n")) << run.out;
  EXPECT_TRUE(has_line(run, "exit_code 139\n")) << run.out;
  EXPECT_FALSE(has_line(run, "fault.")) << run.out;
}

TEST(Cashc, SimulatorLimitHasItsOwnExitCode) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizers reserve more address space than the cap";
#endif
  // 100 MB of touched heap under a 60 MB address-space cap: the host, not
  // the simulated machine, runs out of memory.
  const Outcome run = cashc("--mode=gcc", R"(
int main() {
  int i; int j; int *p;
  for (i = 0; i < 25; i = i + 1) {
    p = malloc(4000000);
    for (j = 0; j < 1000000; j = j + 1024) { p[j] = i; }
  }
  return 0;
}
)", "ulimit -v 60000;");
  EXPECT_EQ(run.status, 70) << run.out;
}

} // namespace
