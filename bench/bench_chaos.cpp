// Chaos/conformance gate: sweeps the (seed x fault-plan) matrix and EXITS
// NON-ZERO if any cell breaks the degradation contract — every injected run
// must either complete with the clean reference's output (possibly
// degraded: global-segment fallback, gate-busy retries) or report a precise
// structured fault. Never a host crash, never an untyped error, never
// silently wrong output.
//
// Doubles as the fault-injection determinism gate:
//   * the whole matrix must be bit-identical at jobs=1 and every parallel
//     jobs value (a replayed plan is a pure function of (seed, plan));
//   * serve_requests() with an empty plan must be bit-transparent (exactly
//     the no-plan metrics, cycles included);
//   * an armed netsim plan (timeouts + retries) must aggregate identically
//     across thread counts.
//
// Quick smoke run under ctest (label: bench); full scale with
// -DCASH_BENCH_FULL=ON or without --quick.
#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "netsim/netsim.hpp"
#include "workloads/chaos.hpp"

namespace {

using cash::netsim::ServerMetrics;
using cash::workloads::ChaosCell;
using cash::workloads::ChaosReport;

bool identical_cells(const ChaosCell& a, const ChaosCell& b) {
  return a.seed == b.seed && a.plan == b.plan &&
         a.completed == b.completed &&
         a.output_matches == b.output_matches &&
         a.degraded == b.degraded && a.faulted == b.faulted &&
         a.faults_injected == b.faults_injected && a.cycles == b.cycles &&
         a.detail == b.detail;
}

bool identical_reports(const ChaosReport& a, const ChaosReport& b) {
  if (a.cells.size() != b.cells.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!identical_cells(a.cells[i], b.cells[i])) {
      return false;
    }
  }
  return a.completed == b.completed && a.degraded == b.degraded &&
         a.faulted == b.faulted &&
         a.faults_injected == b.faults_injected &&
         a.violations == b.violations;
}

bool identical_metrics(const ServerMetrics& a, const ServerMetrics& b) {
  // Every simulated field, percentiles and per-class breakdowns included
  // (host-side PoolStats is the documented exemption).
  return first_metrics_difference(a, b).empty();
}

} // namespace

int main(int argc, char** argv) {
  using namespace cash;
  using namespace cash::bench;

  bool quick = env_int("CASH_BENCH_QUICK", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  print_title(quick ? "Chaos matrix: fault injection vs degradation (smoke)"
                    : "Chaos matrix: fault injection vs degradation");

  const std::uint32_t seed_begin = 1;
  const std::uint32_t seed_end =
      seed_begin + static_cast<std::uint32_t>(
                       env_int("CASH_BENCH_SEEDS", quick ? 4 : 24));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> jobs_values = {1, 2, static_cast<int>(hw)};
  std::sort(jobs_values.begin(), jobs_values.end());
  jobs_values.erase(std::unique(jobs_values.begin(), jobs_values.end()),
                    jobs_values.end());

  bool all_ok = true;

  // --- 1. The matrix itself, plus the jobs-identity gate -------------------
  std::vector<ChaosReport> reports;
  std::printf("matrix: seeds [%u, %u) x %zu plans\n\n", seed_begin, seed_end,
              workloads::chaos_plans().size());
  for (int jobs : jobs_values) {
    reports.push_back(workloads::run_chaos_matrix(
        seed_begin, seed_end, exec::ExecutorConfig{jobs}));
  }
  const ChaosReport& report = reports.front();
  bool jobs_identical = true;
  for (std::size_t r = 1; r < reports.size(); ++r) {
    jobs_identical =
        jobs_identical && identical_reports(report, reports[r]);
  }

  // Per-plan aggregate table, reduced from the jobs=1 report.
  struct PlanAgg {
    int cells{0};
    int completed{0};
    int degraded{0};
    int faulted{0};
    int violations{0};
    std::uint64_t faults_injected{0};
  };
  std::map<std::string, PlanAgg> per_plan;
  std::vector<std::string> plan_order;
  for (const ChaosCell& cell : report.cells) {
    if (per_plan.find(cell.plan) == per_plan.end()) {
      plan_order.push_back(cell.plan);
    }
    PlanAgg& agg = per_plan[cell.plan];
    ++agg.cells;
    if (!cell.ok()) {
      ++agg.violations;
      std::fprintf(stderr, "VIOLATION seed=%u plan=%s: %s\n", cell.seed,
                   cell.plan.c_str(), cell.detail.c_str());
    } else if (cell.faulted) {
      ++agg.faulted;
    } else {
      ++agg.completed;
      if (cell.degraded) {
        ++agg.degraded;
      }
    }
    agg.faults_injected += cell.faults_injected;
  }
  std::printf("%-16s %6s %10s %9s %8s %9s %10s\n", "plan", "cells",
              "completed", "degraded", "faulted", "injected", "violations");
  for (const std::string& name : plan_order) {
    const PlanAgg& agg = per_plan[name];
    std::printf("%-16s %6d %10d %9d %8d %9llu %10d\n", name.c_str(),
                agg.cells, agg.completed, agg.degraded, agg.faulted,
                static_cast<unsigned long long>(agg.faults_injected),
                agg.violations);
  }
  std::printf("\nmatrix identical across jobs {1..%u}: %s\n", hw,
              jobs_identical ? "yes" : "NO");
  all_ok = all_ok && report.ok() && jobs_identical;

  // --- 2. netsim: empty-plan bit-transparency + armed-plan determinism -----
  const workloads::Workload& app = workloads::network_suite().front();
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(app.source, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.error.c_str());
    return 1;
  }
  const int requests = env_int("CASH_BENCH_REQUESTS", quick ? 40 : 400);

  const ServerMetrics clean = netsim::serve_requests(
      *compiled.program, requests, 1, exec::ExecutorConfig{1});
  const ServerMetrics empty_plan = netsim::serve_requests(
      *compiled.program, requests, 1, exec::ExecutorConfig{1},
      faultinject::FaultPlan{});
  const bool transparent = identical_metrics(clean, empty_plan);
  std::printf("\nnetsim empty-plan bit-transparency: %s\n",
              transparent ? "yes" : "NO");
  all_ok = all_ok && transparent;

  // Armed plan: one in four requests times out (retried, budget 2), and
  // every fifth segment allocation inside the children degrades.
  faultinject::FaultPlan armed;
  armed.seed = 7;
  armed.net_retry_budget = 2;
  armed.rules.push_back(
      {faultinject::FaultSite::kNetRequestTimeout, 0, 1, 0, 4});
  armed.rules.push_back({faultinject::FaultSite::kSegAllocate, 0, 5, 0, 1});
  std::vector<ServerMetrics> armed_runs;
  for (int jobs : jobs_values) {
    armed_runs.push_back(netsim::serve_requests(
        *compiled.program, requests, 1, exec::ExecutorConfig{jobs}, armed));
  }
  bool armed_identical = true;
  for (std::size_t r = 1; r < armed_runs.size(); ++r) {
    armed_identical =
        armed_identical && identical_metrics(armed_runs.front(),
                                             armed_runs[r]);
  }
  const ServerMetrics& am = armed_runs.front();
  std::printf("netsim armed plan: %llu timeouts, %llu retries, %llu "
              "degraded, %llu failed, %llu faults injected\n",
              static_cast<unsigned long long>(am.timeouts),
              static_cast<unsigned long long>(am.retries),
              static_cast<unsigned long long>(am.degraded_requests),
              static_cast<unsigned long long>(am.failed_requests),
              static_cast<unsigned long long>(am.faults_injected));
  std::printf("netsim armed plan identical across jobs: %s\n",
              armed_identical ? "yes" : "NO");
  all_ok = all_ok && armed_identical;

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: chaos contract or determinism violated\n");
    return 1;
  }
  return 0;
}
