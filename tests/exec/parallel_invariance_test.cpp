// Thread-count invariance: the DESIGN.md §7 contract that host-side
// parallelism never changes simulated results. serve_requests, a
// bench-style (workload x mode) grid, and the fuzz differential matrix
// must produce bit-identical results for jobs in {1, 2, 8} (and, for the
// network app and the paper micro workloads, for 2, 4 and the host's
// cores).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "faultinject/faultinject.hpp"
#include "netsim/netsim.hpp"
#include "workloads/chaos.hpp"
#include "workloads/fuzz.hpp"
#include "workloads/tenants.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

using passes::CheckMode;

constexpr const char* kServer = R"(
int table[64];
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
int main() {
  server_init();
  return handle_request();
}
)";

void expect_identical(const netsim::ServerMetrics& a,
                      const netsim::ServerMetrics& b, int jobs) {
  // first_metrics_difference covers every simulated field — the integer
  // aggregates, the derived doubles (identical integer inputs through
  // identical expressions must be bit-identical: equality, not NEAR), the
  // latency order statistics, the queueing aggregates, and the per-class
  // breakdowns. Only host-side PoolStats is exempt.
  EXPECT_EQ(netsim::first_metrics_difference(a, b), "") << "jobs=" << jobs;
}

TEST(ParallelInvariance, ServeRequestsIsThreadCountInvariant) {
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash}) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult program = compile(kServer, options);
    ASSERT_TRUE(program.ok()) << program.error;
    const netsim::ServerMetrics serial =
        netsim::serve_requests(*program.program, 40, 7, {1});
    for (int jobs : {2, 8}) {
      const netsim::ServerMetrics parallel =
          netsim::serve_requests(*program.program, 40, 7, {jobs});
      expect_identical(serial, parallel, jobs);
    }
  }
}

TEST(ParallelInvariance, SnapshotServingMatchesReplayAtEveryThreadCount) {
  // The fork-from-snapshot path (per-worker machine + capture/restore) and
  // the rebuild-and-replay path materialise the same parent image; every
  // ServerMetrics field must be bit-identical across both strategies, both
  // engines, and jobs in {1, 2, 8}.
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash}) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult program = compile(kServer, options);
    ASSERT_TRUE(program.ok()) << program.error;

    netsim::ServeOptions replay;
    replay.enable_snapshot = false;
    replay.enable_predecode = false;
    const netsim::ServerMetrics reference =
        netsim::serve_requests(*program.program, 40, 7, {1}, {}, replay);

    netsim::ServeOptions snapshot; // both fast paths on (the default)
    for (int jobs : {1, 2, 8}) {
      const netsim::ServerMetrics fast = netsim::serve_requests(
          *program.program, 40, 7, {jobs}, {}, snapshot);
      expect_identical(reference, fast, jobs);
    }
  }
}

// Parallel worker counts from 2 up to the host's cores.
std::vector<int> jobs_sweep() {
  std::vector<int> jobs = {2, 4};
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores > 1 && std::find(jobs.begin(), jobs.end(), cores) == jobs.end()) {
    jobs.push_back(cores);
  }
  return jobs;
}

TEST(ParallelInvariance, NetworkAppServingIsThreadCountInvariant) {
  // The paper's first network app under Cash: one forked server process
  // per request, the heaviest fan-out site in the repo.
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult program =
      compile(workloads::network_suite().front().source, options);
  ASSERT_TRUE(program.ok()) << program.error;
  const netsim::ServerMetrics serial =
      netsim::serve_requests(*program.program, 60, 1, {1});
  for (int jobs : jobs_sweep()) {
    expect_identical(
        serial, netsim::serve_requests(*program.program, 60, 1, {jobs}),
        jobs);
  }
}

// A (workload x mode) grid like the bench tables run: each cell compiles
// and executes independently; its simulated cycle count and counters must
// not depend on the thread count.
void expect_grid_invariant(const std::vector<std::string>& sources,
                           const std::vector<int>& jobs_counts) {
  const CheckMode kModes[] = {CheckMode::kNoCheck, CheckMode::kCash,
                              CheckMode::kBcc};
  struct CellResult {
    bool ok;
    std::uint64_t cycles;
    std::uint64_t sw_checks;
    std::uint64_t hw_checks;
    bool operator==(const CellResult&) const = default;
  };
  auto cell = [&](std::size_t i) -> CellResult {
    CompileOptions options;
    options.lower.mode = kModes[i % 3];
    CompileResult compiled = compile(sources[i / 3], options);
    if (!compiled.ok()) {
      throw std::runtime_error(compiled.error);
    }
    const vm::RunResult run = compiled.program->run();
    return {run.ok, run.cycles, run.counters.sw_checks,
            run.counters.hw_checked_accesses};
  };
  const std::size_t n = sources.size() * 3;
  const std::vector<CellResult> serial = exec::parallel_map(n, 1, cell);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(serial[i].ok) << "cell " << i;
  }
  for (int jobs : jobs_counts) {
    EXPECT_EQ(exec::parallel_map(n, jobs, cell), serial) << "jobs=" << jobs;
  }
}

TEST(ParallelInvariance, BenchGridIsThreadCountInvariant) {
  expect_grid_invariant({workloads::matmul_source(24),
                         workloads::gauss_source(24),
                         workloads::fft2d_source(16)},
                        {2, 8});
}

TEST(ParallelInvariance, MicroSuiteGridIsThreadCountInvariant) {
  // The first two paper micro workloads at their paper sizes.
  const std::vector<workloads::Workload>& micro = workloads::micro_suite();
  expect_grid_invariant({micro[0].source, micro[1].source}, jobs_sweep());
}

void expect_identical(const workloads::ChaosCell& a,
                      const workloads::ChaosCell& b, int jobs) {
  EXPECT_EQ(a.seed, b.seed) << "jobs=" << jobs;
  EXPECT_EQ(a.plan, b.plan) << "jobs=" << jobs;
  EXPECT_EQ(a.completed, b.completed) << "jobs=" << jobs;
  EXPECT_EQ(a.output_matches, b.output_matches) << "jobs=" << jobs;
  EXPECT_EQ(a.degraded, b.degraded) << "jobs=" << jobs;
  EXPECT_EQ(a.faulted, b.faulted) << "jobs=" << jobs;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << "jobs=" << jobs;
  EXPECT_EQ(a.cycles, b.cycles) << "jobs=" << jobs;
  EXPECT_EQ(a.detail, b.detail) << "jobs=" << jobs;
}

TEST(ParallelInvariance, ChaosMatrixIsThreadCountInvariant) {
  // Fault injection composes with the parallel engine: every injected
  // (seed x plan) cell — degraded runs, structured faults, cycle counts,
  // fault-site hit totals — is a pure function of its inputs, so the whole
  // report is bit-identical for jobs in {1, 2, 8}.
  const workloads::ChaosReport serial = workloads::run_chaos_matrix(1, 4, {1});
  EXPECT_EQ(serial.violations, 0u);
  EXPECT_GT(serial.faults_injected, 0u);
  for (int jobs : {2, 8}) {
    const workloads::ChaosReport parallel =
        workloads::run_chaos_matrix(1, 4, {jobs});
    EXPECT_EQ(parallel.completed, serial.completed) << "jobs=" << jobs;
    EXPECT_EQ(parallel.degraded, serial.degraded) << "jobs=" << jobs;
    EXPECT_EQ(parallel.faulted, serial.faulted) << "jobs=" << jobs;
    EXPECT_EQ(parallel.faults_injected, serial.faults_injected)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.violations, serial.violations) << "jobs=" << jobs;
    ASSERT_EQ(parallel.cells.size(), serial.cells.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      expect_identical(serial.cells[i], parallel.cells[i], jobs);
    }
  }
}

TEST(ParallelInvariance, InjectedServeRequestsIsThreadCountInvariant) {
  // The armed netsim path forks per-request machines, injects timeouts and
  // LDT exhaustion, and retries within a budget — all of which must stay a
  // pure function of (program, seed, plan), independent of worker threads.
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult program = compile(kServer, options);
  ASSERT_TRUE(program.ok()) << program.error;

  faultinject::FaultPlan plan;
  plan.seed = 7;
  plan.net_retry_budget = 2;
  plan.rules.push_back({faultinject::FaultSite::kNetRequestTimeout, 0, 3, 0, 1});
  plan.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 5, 0, 1});

  const netsim::ServerMetrics serial =
      netsim::serve_requests(*program.program, 30, 11, {1}, plan);
  // The plan must actually exercise the degraded machinery, otherwise this
  // test silently decays into the clean-path one above.
  EXPECT_GT(serial.timeouts, 0u);
  EXPECT_GT(serial.retries, 0u);
  EXPECT_GT(serial.degraded_requests, 0u);
  EXPECT_GT(serial.faults_injected, 0u);
  for (int jobs : {2, 8}) {
    const netsim::ServerMetrics parallel =
        netsim::serve_requests(*program.program, 30, 11, {jobs}, plan);
    expect_identical(serial, parallel, jobs);
  }
}

TEST(ParallelInvariance, ArmedSnapshotServingMatchesRebuildAndReplay) {
  // The headline perf path: armed plans fork from a snapshot captured
  // *before* arming, then re-arm a fresh per-request injector after each
  // restore. That must be bit-identical — every fault pattern, retry,
  // failure string, percentile, and per-class count — to rebuilding the
  // machine and arming at the same fork point, across modes, plans, and
  // jobs in {1, 2, 8}.
  faultinject::FaultPlan timeouts;
  timeouts.seed = 7;
  timeouts.net_retry_budget = 2;
  timeouts.rules.push_back(
      {faultinject::FaultSite::kNetRequestTimeout, 0, 3, 0, 1});
  timeouts.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 5, 0, 1});
  faultinject::FaultPlan harsh; // exhausted budgets → failed requests
  harsh.seed = 3;
  harsh.net_retry_budget = 0;
  harsh.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 2, 0, 1});
  harsh.rules.push_back(
      {faultinject::FaultSite::kNetRequestTimeout, 0, 1, 0, 2});

  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash}) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult program = compile(kServer, options);
    ASSERT_TRUE(program.ok()) << program.error;
    for (const faultinject::FaultPlan& plan : {timeouts, harsh}) {
      netsim::ServeOptions replay;
      replay.enable_snapshot = false;
      const netsim::ServerMetrics reference =
          netsim::serve_requests(*program.program, 30, 11, {1}, plan, replay);
      EXPECT_GT(reference.faults_injected, 0u);
      for (int jobs : {1, 2, 8}) {
        const netsim::ServerMetrics fast = netsim::serve_requests(
            *program.program, 30, 11, {jobs}, plan, {});
        expect_identical(reference, fast, jobs);
        // Prove the fast path actually ran: armed serving must capture the
        // pre-armed parent image and restore it per fork.
        EXPECT_GT(fast.pool.captures, 0u) << "jobs=" << jobs;
        EXPECT_GT(fast.pool.restores, 0u) << "jobs=" << jobs;
        EXPECT_EQ(reference.pool.captures, 0u);
        EXPECT_GE(reference.pool.machines_built, 30u);
      }
    }
  }
}

void expect_identical(const workloads::TenantCell& a,
                      const workloads::TenantCell& b, int jobs) {
  EXPECT_EQ(a.processes, b.processes) << "jobs=" << jobs;
  EXPECT_EQ(a.arrays_per_process, b.arrays_per_process) << "jobs=" << jobs;
  EXPECT_EQ(a.quantum_cycles, b.quantum_cycles) << "jobs=" << jobs;
  EXPECT_EQ(a.tenants, b.tenants) << "jobs=" << jobs;
  EXPECT_EQ(a.sched, b.sched) << "jobs=" << jobs;
  EXPECT_EQ(a.total_user_cycles, b.total_user_cycles) << "jobs=" << jobs;
  EXPECT_EQ(a.ldt_slots_installed, b.ldt_slots_installed) << "jobs=" << jobs;
  // Derived doubles: identical integer inputs through identical
  // expressions, so exact equality applies.
  EXPECT_EQ(a.thrash_ratio, b.thrash_ratio) << "jobs=" << jobs;
  EXPECT_EQ(a.switch_overhead, b.switch_overhead) << "jobs=" << jobs;
}

TEST(TenantMatrixBitIdentical, MatrixIsThreadCountInvariant) {
  // The multi-process tenant sweep shards (processes x arrays x quantum)
  // cells across host threads; every per-tenant record, scheduler
  // aggregate, and derived ratio must be a pure function of the cell's
  // options — including with a binding shared LDT budget.
  workloads::TenantOptions base;
  base.rounds = 2;
  base.seed = 23;
  base.ldt_slot_budget = 48;
  const std::vector<int> procs = {1, 3};
  const std::vector<int> arrays = {16, 40};
  const std::vector<std::uint64_t> quanta = {700, 9000};
  const std::vector<workloads::TenantCell> serial =
      workloads::run_tenant_matrix(procs, arrays, quanta, base, {1});
  ASSERT_EQ(serial.size(), procs.size() * arrays.size() * quanta.size());
  for (int jobs : {2, 8}) {
    const std::vector<workloads::TenantCell> parallel =
        workloads::run_tenant_matrix(procs, arrays, quanta, base, {jobs});
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i], jobs);
    }
  }
}

TEST(TenantMatrixBitIdentical, UnbudgetedRecordsAreQuantumInvariant) {
  // With no shared budget, a tenant's record may not depend on how finely
  // the scheduler slices the CPU: the same total work across wildly
  // different quanta yields bit-identical per-tenant records (only the
  // scheduler aggregates — switch counts — move).
  workloads::TenantOptions base;
  base.processes = 3;
  base.arrays_per_process = 24;
  base.rounds = 2;
  base.seed = 5;
  const std::vector<workloads::TenantCell> cells =
      workloads::run_tenant_matrix({3}, {24}, {500, 2000, 50000}, base, {2});
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_GT(cells[0].sched.context_switches, cells[2].sched.context_switches);
  for (std::size_t q = 1; q < cells.size(); ++q) {
    EXPECT_EQ(cells[0].tenants, cells[q].tenants)
        << "quantum " << cells[q].quantum_cycles;
  }
}

TEST(TenantMatrixBitIdentical, TenantServingIsThreadCountInvariant) {
  // Multi-tenant serving (class = tenant process, context switches charged
  // deterministically in the serial reduction) under the queue model.
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash}) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult program = compile(kServer, options);
    ASSERT_TRUE(program.ok()) << program.error;
    netsim::ServeOptions serve;
    // Two tenants sharing one handler: tenancy is per class, so switches
    // still occur whenever the serving interleaves the two.
    serve.classes = {{"a", "handle_request", 2}, {"b", "handle_request", 1}};
    serve.sim_servers = 2;
    serve.mean_interarrival_cycles = 1500;
    serve.tenant_processes = true;
    const netsim::ServerMetrics serial =
        netsim::serve_requests(*program.program, 40, 7, {1}, {}, serve);
    EXPECT_GT(serial.context_switches, 0u);
    for (int jobs : {2, 8}) {
      const netsim::ServerMetrics parallel =
          netsim::serve_requests(*program.program, 40, 7, {jobs}, {}, serve);
      expect_identical(serial, parallel, jobs);
    }
  }
}

TEST(ParallelInvariance, FuzzMatrixIsThreadCountInvariant) {
  const std::vector<workloads::FuzzDivergence> serial =
      workloads::run_fuzz_matrix(1, 5, {1});
  EXPECT_TRUE(serial.empty());
  for (int jobs : {2, 8}) {
    const std::vector<workloads::FuzzDivergence> parallel =
        workloads::run_fuzz_matrix(1, 5, {jobs});
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].seed, serial[i].seed);
      EXPECT_EQ(parallel[i].config, serial[i].config);
      EXPECT_EQ(parallel[i].detail, serial[i].detail);
    }
  }
}

} // namespace
} // namespace cash
