// Production serving-loop tests: latency distributions, mixed request
// classes (including deliberately faulty handlers), the arrival/queueing
// model, connection churn, and snapshot-pool accounting. The bit-identity
// side (snapshot vs replay, armed vs unarmed, thread counts) is covered in
// tests/exec/parallel_invariance_test.cpp; this suite pins the load-model
// semantics themselves.
#include <gtest/gtest.h>


#include "netsim/netsim.hpp"

namespace cash::netsim {
namespace {

constexpr const char* kMixServer = R"(
int table[64];
int bad[4];
int server_init() {
  int i;
  for (i = 0; i < 64; i++) {
    table[i] = i * 3;
  }
  return 0;
}
int sum_chunk(int reps) {
  int buf[64];
  int i; int r; int s;
  s = 0;
  for (r = 0; r < reps; r++) {
    for (i = 0; i < 64; i++) {
      buf[i] = table[i] + r;
      s = s + buf[i];
    }
  }
  return s;
}
int handle_request() {
  int n;
  n = rand() % 12 + 4;
  return sum_chunk(n) + sum_chunk(n);
}
int handle_large() {
  int n;
  n = rand() % 8 + 24;
  return sum_chunk(n) + sum_chunk(n) + sum_chunk(n);
}
int handle_bad() {
  int i;
  i = rand() % 4 + 6;
  while (i <= 12) {
    bad[i] = i;
    i = i + 1;
  }
  return bad[0];
}
int main() {
  server_init();
  return handle_request();
}
)";

CompileResult compile_mode(passes::CheckMode mode) {
  CompileOptions options;
  options.lower.mode = mode;
  return compile(kMixServer, options);
}

TEST(ServeLoop, LatencyDistributionIsExactAndOrdered) {
  CompileResult program = compile_mode(passes::CheckMode::kCash);
  ASSERT_TRUE(program.ok()) << program.error;
  const ServerMetrics m = serve_requests(*program.program, 100);
  // With the default ServeOptions (no queue, no churn) per-request latency
  // is exactly the per-request CPU cycles.
  EXPECT_EQ(m.total_latency_cycles, m.total_cpu_cycles);
  EXPECT_GT(m.p50_latency_cycles, 0u);
  EXPECT_LE(m.p50_latency_cycles, m.p90_latency_cycles);
  EXPECT_LE(m.p90_latency_cycles, m.p99_latency_cycles);
  EXPECT_LE(m.p99_latency_cycles, m.max_latency_cycles);
  // rand() % 12 varies the handler's work, so the distribution has spread.
  EXPECT_LT(m.p50_latency_cycles, m.max_latency_cycles);
  // Nearest-rank percentiles are order statistics: actual observed values,
  // so the mean lies between the extremes.
  EXPECT_GE(m.mean_latency_cycles, 0.0);
  EXPECT_LE(m.mean_latency_cycles,
            static_cast<double>(m.max_latency_cycles));
  // Implicit single class mirrors the global distribution.
  ASSERT_EQ(m.classes.size(), 1u);
  EXPECT_EQ(m.classes[0].name, "default");
  EXPECT_EQ(m.classes[0].requests, 100u);
  EXPECT_EQ(m.classes[0].p99_latency_cycles, m.p99_latency_cycles);
  EXPECT_EQ(m.classes[0].max_latency_cycles, m.max_latency_cycles);
}

TEST(ServeLoop, MixedClassesSplitDeterministically) {
  CompileResult program = compile_mode(passes::CheckMode::kCash);
  ASSERT_TRUE(program.ok()) << program.error;
  ServeOptions serve;
  serve.classes = {{"small", "handle_request", 3}, {"large", "handle_large", 1}};
  const ServerMetrics m = serve_requests(*program.program, 200, 5, {}, {}, serve);
  ASSERT_EQ(m.classes.size(), 2u);
  const ClassMetrics& small = m.classes[0];
  const ClassMetrics& large = m.classes[1];
  EXPECT_EQ(small.requests + large.requests, 200u);
  // 3:1 weights: both classes are exercised and small dominates.
  EXPECT_GT(small.requests, large.requests);
  EXPECT_GT(large.requests, 0u);
  // handle_large does ~3x the work of handle_request.
  EXPECT_GT(large.p50_latency_cycles, small.p50_latency_cycles);
  // Per-class cycles sum to the global aggregate.
  EXPECT_EQ(small.total_cpu_cycles + large.total_cpu_cycles,
            m.total_cpu_cycles);
  // The split is a pure function of (seed_base, index): same inputs, same
  // split; a different seed_base draws a different mix.
  const ServerMetrics again =
      serve_requests(*program.program, 200, 5, {}, {}, serve);
  EXPECT_EQ(first_metrics_difference(m, again), "");
  const ServerMetrics other =
      serve_requests(*program.program, 200, 99, {}, {}, serve);
  EXPECT_NE(first_metrics_difference(m, other), "");
}

TEST(ServeLoop, FaultyClassIsRecordedNotThrown) {
  CompileResult program = compile_mode(passes::CheckMode::kCash);
  ASSERT_TRUE(program.ok()) << program.error;
  ServeOptions serve;
  serve.classes = {{"good", "handle_request", 4}, {"oob", "handle_bad", 1}};
  ServerMetrics m;
  ASSERT_NO_THROW(
      m = serve_requests(*program.program, 100, 5, {}, {}, serve));
  ASSERT_EQ(m.classes.size(), 2u);
  // Every "oob" request trips a Cash bound check; every "good" one passes.
  EXPECT_GT(m.classes[1].requests, 0u);
  EXPECT_EQ(m.classes[1].failed_requests, m.classes[1].requests);
  EXPECT_EQ(m.classes[0].failed_requests, 0u);
  EXPECT_EQ(m.failed_requests, m.classes[1].requests);
  EXPECT_FALSE(m.first_failure.empty());
  // A faulted child dirties its machine mid-handler; the snapshot pool must
  // rewind it bit-exactly, so serving the same mix without snapshots is
  // identical.
  ServeOptions replay = serve;
  replay.enable_snapshot = false;
  const ServerMetrics r =
      serve_requests(*program.program, 100, 5, {}, {}, replay);
  EXPECT_EQ(first_metrics_difference(m, r), "");
}

TEST(ServeLoop, QueueingModelIsDeterministicAcrossStrategiesAndJobs) {
  CompileResult program = compile_mode(passes::CheckMode::kNoCheck);
  ASSERT_TRUE(program.ok()) << program.error;
  ServeOptions serve;
  serve.sim_servers = 2;
  serve.mean_interarrival_cycles = 4000; // well under mean service time
  serve.churn_period = 10;
  const ServerMetrics base =
      serve_requests(*program.program, 120, 3, {1}, {}, serve);
  // Two servers fed faster than they drain: waits and a backlog must show.
  EXPECT_GT(base.queue_wait_cycles, 0u);
  EXPECT_GT(base.peak_queue_depth, 0u);
  EXPECT_EQ(base.rejected_requests, 0u);
  EXPECT_EQ(base.connects, 12u); // indices 0, 10, ..., 110
  // Latency = CPU + connect + wait, exactly.
  EXPECT_EQ(base.total_latency_cycles,
            base.total_cpu_cycles + base.connects * serve.connect_cycles +
                base.queue_wait_cycles);
  ServeOptions replay = serve;
  replay.enable_snapshot = false;
  for (int jobs : {1, 2, 8}) {
    const ServerMetrics snap =
        serve_requests(*program.program, 120, 3, {jobs}, {}, serve);
    const ServerMetrics reb =
        serve_requests(*program.program, 120, 3, {jobs}, {}, replay);
    EXPECT_EQ(first_metrics_difference(base, snap), "") << "jobs=" << jobs;
    EXPECT_EQ(first_metrics_difference(base, reb), "") << "jobs=" << jobs;
  }
}

TEST(ServeLoop, AdmissionControlRejectsWhenTheQueueIsFull) {
  CompileResult program = compile_mode(passes::CheckMode::kNoCheck);
  ASSERT_TRUE(program.ok()) << program.error;
  ServeOptions serve;
  serve.sim_servers = 1;
  serve.mean_interarrival_cycles = 1000; // heavy overload
  serve.max_queue_depth = 4;
  const ServerMetrics m =
      serve_requests(*program.program, 150, 3, {}, {}, serve);
  EXPECT_GT(m.rejected_requests, 0u);
  EXPECT_LT(m.rejected_requests, 150u);
  // The backlog never exceeds the admission limit.
  EXPECT_LE(m.peak_queue_depth, 4u);
  // Rejected requests never ran: per-class admitted counts absorb the gap.
  ASSERT_EQ(m.classes.size(), 1u);
  EXPECT_EQ(m.classes[0].requests + m.rejected_requests, 150u);
  // Unlimited queue admits everything but waits longer.
  ServeOptions open = serve;
  open.max_queue_depth = 0;
  const ServerMetrics all =
      serve_requests(*program.program, 150, 3, {}, {}, open);
  EXPECT_EQ(all.rejected_requests, 0u);
  EXPECT_GT(all.queue_wait_cycles, m.queue_wait_cycles);
  EXPECT_GE(all.peak_queue_depth, m.peak_queue_depth);
}

TEST(ServeLoop, SnapshotPoolAmortisesMachineBuilds) {
  CompileResult program = compile_mode(passes::CheckMode::kCash);
  ASSERT_TRUE(program.ok()) << program.error;
  // jobs=1: one worker chunk → one machine, one init replay, one capture,
  // and a restore before every request after the first.
  const ServerMetrics pooled =
      serve_requests(*program.program, 50, 1, {1});
  EXPECT_EQ(pooled.pool.machines_built, 1u);
  EXPECT_EQ(pooled.pool.init_replays, 1u);
  EXPECT_EQ(pooled.pool.captures, 1u);
  EXPECT_EQ(pooled.pool.restores, 49u);
  // Rebuild-and-replay pays the full build per request.
  ServeOptions replay;
  replay.enable_snapshot = false;
  const ServerMetrics rebuilt =
      serve_requests(*program.program, 50, 1, {1}, {}, replay);
  EXPECT_EQ(rebuilt.pool.machines_built, 50u);
  EXPECT_EQ(rebuilt.pool.init_replays, 50u);
  EXPECT_EQ(rebuilt.pool.captures, 0u);
  EXPECT_EQ(rebuilt.pool.restores, 0u);
  // PoolStats is the one host-side member: everything simulated is still
  // bit-identical between the two strategies.
  EXPECT_EQ(first_metrics_difference(pooled, rebuilt), "");
}

TEST(ServeLoop, EnableSnapshotOffKeepsArmedServingOffTheSnapshotPath) {
  CompileResult program = compile_mode(passes::CheckMode::kCash);
  ASSERT_TRUE(program.ok()) << program.error;
  faultinject::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(
      {faultinject::FaultSite::kNetRequestTimeout, 0, 3, 0, 1});
  const ServerMetrics armed =
      serve_requests(*program.program, 30, 7, {1}, plan);
  EXPECT_GT(armed.pool.captures, 0u); // armed default = fork-from-snapshot
  ServeOptions replay;
  replay.enable_snapshot = false;
  const ServerMetrics killed =
      serve_requests(*program.program, 30, 7, {1}, plan, replay);
  EXPECT_EQ(killed.pool.captures, 0u);
  EXPECT_EQ(killed.pool.restores, 0u);
  EXPECT_EQ(first_metrics_difference(armed, killed), "");
}

} // namespace
} // namespace cash::netsim
