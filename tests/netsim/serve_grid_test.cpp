// Serving-strategy gates: every host-side serving path — fork-from-snapshot,
// pre-decoded and hot-trace engines, armed fault plans, worker thread
// counts — must give ServerMetrics bit-identical to the reference path on
// the same request stream. The servers are deliberately heavier in
// server_init than in their handlers, the shape a fork-per-request server
// has. Only host-side PoolStats is exempt from the comparison.
//
// Under $CASH_NO_SNAPSHOT every fast cell falls back to rebuild-and-replay
// and must still match; only the "the pool was used" checks are skipped.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "netsim/netsim.hpp"

namespace cash::netsim {
namespace {

using passes::CheckMode;

constexpr const char* kServerCore = R"(
int table[2048];
int *pool;
int server_init() {
  int i; int pass;
  for (pass = 0; pass < 24; pass++) {
    for (i = 0; i < 2048; i++) {
      table[i] = table[i] + i % 17 + pass;
    }
  }
  pool = malloc(1024);
  for (i = 0; i < 256; i++) {
    pool[i] = table[i * 8] + i;
  }
  return 0;
}
int handle_request() {
  int buf[128];
  int i; int n; int s;
  n = rand() % 96 + 32;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 128] = table[(i * 7) % 2048] + pool[i % 256];
    s = s + buf[i % 128];
  }
  return s;
}
)";

// Extra request classes: a long handler and one that overruns `small`.
constexpr const char* kClassHandlers = R"(int handle_large() {
  int buf[128];
  int i; int n; int s;
  n = rand() % 128 + 256;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 128] = table[(i * 13) % 2048] + pool[(i * 3) % 256];
    s = s + buf[i % 128];
  }
  return s;
}
int handle_bad() {
  int small[8];
  int i;
  i = rand() % 4 + 9;
  while (i <= 12) {
    small[i] = i;
    i = i + 1;
  }
  return small[0];
}
)";

// A handler with an inner loop, so each worker has traces to form.
constexpr const char* kLoopServer = R"(
int table[2048];
int *pool;
int server_init() {
  int i; int pass;
  for (pass = 0; pass < 16; pass++) {
    for (i = 0; i < 2048; i++) {
      table[i] = table[i] + i % 13 + pass;
    }
  }
  pool = malloc(1024);
  for (i = 0; i < 256; i++) {
    pool[i] = table[i * 4] + i;
  }
  return 0;
}
int handle_request() {
  int buf[128];
  int i; int j; int n; int s;
  n = rand() % 48 + 80;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 128] = table[(i * 7) % 2048] + pool[i % 256];
    for (j = 0; j < 8; j++) {
      s = s + buf[i % 128] % (j + 2);
    }
  }
  return s;
}
int main() { server_init(); return handle_request(); }
)";

constexpr const char* kMain =
    "int main() { server_init(); return handle_request(); }\n";

std::unique_ptr<CompiledProgram> compile_server(const std::string& source,
                                                CheckMode mode) {
  CompileOptions options;
  options.lower.mode = mode;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return std::move(compiled.program);
}

bool snapshot_killed() { return std::getenv("CASH_NO_SNAPSHOT") != nullptr; }

TEST(ServeGrid, SnapshotMatchesReplayInEveryModePlanAndJobsCell) {
  faultinject::FaultPlan armed;
  armed.seed = 7;
  armed.net_retry_budget = 2;
  armed.rules.push_back(
      {faultinject::FaultSite::kNetRequestTimeout, 0, 1, 0, 4});
  armed.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 5, 0, 1});
  const std::string source =
      std::string(kServerCore) + kClassHandlers + kMain;
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash}) {
    const auto program = compile_server(source, mode);
    ASSERT_NE(program, nullptr);
    for (const faultinject::FaultPlan& plan : {faultinject::FaultPlan{},
                                               armed}) {
      for (int jobs : {1, 2, 8}) {
        const std::string cell = std::string(to_string(mode)) +
                                 " armed=" + (plan.rules.empty() ? "0" : "1") +
                                 " jobs=" + std::to_string(jobs);
        ServeOptions replay;
        replay.enable_snapshot = false;
        const ServerMetrics fast =
            serve_requests(*program, 30, 7, {jobs}, plan, {});
        const ServerMetrics reference =
            serve_requests(*program, 30, 7, {jobs}, plan, replay);
        EXPECT_EQ(first_metrics_difference(fast, reference), "") << cell;
        if (!snapshot_killed()) {
          EXPECT_GT(fast.pool.captures, 0u) << cell;
        }
      }
    }
  }
}

TEST(ServeGrid, SustainedMixedClassLoadMatchesReplayAtEveryJobsCount) {
  const auto program = compile_server(
      std::string(kServerCore) + kClassHandlers + kMain, CheckMode::kCash);
  ASSERT_NE(program, nullptr);
  ServeOptions serve;
  serve.classes = {{"small", "handle_request", 6},
                   {"large", "handle_large", 2},
                   {"faulty", "handle_bad", 1}};
  serve.sim_servers = 4;
  serve.mean_interarrival_cycles = 2500;
  serve.max_queue_depth = 64;
  serve.churn_period = 32;
  const ServerMetrics sustained =
      serve_requests(*program, 120, 11, {}, {}, serve);
  ServeOptions replay = serve;
  replay.enable_snapshot = false;
  for (int jobs : {1, 2, 8}) {
    EXPECT_EQ(first_metrics_difference(
                  sustained,
                  serve_requests(*program, 120, 11, {jobs}, {}, replay)),
              "")
        << "jobs=" << jobs;
  }
}

TEST(ServeGrid, PredecodedSnapshotMatchesReplayedInterpreter) {
  const auto program =
      compile_server(std::string(kServerCore) + kMain, CheckMode::kCash);
  ASSERT_NE(program, nullptr);
  ServeOptions fast; // snapshot + predecode, traces off
  fast.enable_trace = false;
  ServeOptions reference;
  reference.enable_snapshot = false;
  reference.enable_predecode = false;
  reference.enable_trace = false;
  for (int jobs : {1, 2, 8}) {
    EXPECT_EQ(first_metrics_difference(
                  serve_requests(*program, 24, 7, {jobs}, {}, fast),
                  serve_requests(*program, 24, 7, {jobs}, {}, reference)),
              "")
        << "jobs=" << jobs;
  }
}

TEST(ServeGrid, TraceOnMatchesTraceOff) {
  const auto program = compile_server(kLoopServer, CheckMode::kCash);
  ASSERT_NE(program, nullptr);
  ServeOptions trace_off;
  trace_off.enable_trace = false;
  for (int jobs : {1, 2, 8}) {
    EXPECT_EQ(first_metrics_difference(
                  serve_requests(*program, 24, 7, {jobs}, {}, {}),
                  serve_requests(*program, 24, 7, {jobs}, {}, trace_off)),
              "")
        << "jobs=" << jobs;
  }
}

} // namespace
} // namespace cash::netsim
