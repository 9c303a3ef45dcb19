// Multi-tenant scheduling benchmark and conformance gate (DESIGN.md §10).
//
// Section 1 sweeps workloads::run_tenant_matrix — N round-robin tenant
// processes on one shared KernelSim, each churning its own arrays through
// its own SegmentManager — and EXITS NON-ZERO unless the whole matrix is
// bit-identical at host jobs {1, 2, hw}. Unbudgeted cells are additionally
// gated on quantum invariance: a tenant's record (stats, live-selector
// hash, probe outcomes) may not depend on how finely the scheduler slices
// the shared CPU.
//
// Section 2 is the isolation differential: tenant 0 runs under an armed
// ldt-cross-tenant fault plan while its neighbors must stay bit-identical
// to their solo (single-process kernel) baselines, and every cross-process
// selector probe must be refused.
//
// Section 3 serves a mixed-class load per CheckMode with
// ServeOptions::tenant_processes on — class = tenant process, consecutive
// requests of different classes on one simulated server pay a
// costs::kContextSwitch — gating jobs bit-identity and reporting the
// per-tenant check-cycle breakdown. With $CASH_NO_MULTIPROC set the tenant
// run must collapse to the non-tenant baseline bit for bit.
//
// Quick smoke run under ctest (label: bench); full scale with
// -DCASH_BENCH_FULL=ON or without --quick.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/costs.hpp"
#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "netsim/netsim.hpp"
#include "workloads/tenants.hpp"

namespace {

using cash::workloads::TenantCell;
using cash::workloads::TenantOptions;
using cash::workloads::TenantRecord;

// Same shape as netsim::first_metrics_difference, over a whole tenant
// matrix: the name of the first differing field, or "" when identical.
// Doubles are compared exactly — both sides derive them from the same
// integer aggregates, so any drift is a determinism bug, not rounding.
std::string first_cell_difference(const TenantCell& a, const TenantCell& b) {
  if (a.processes != b.processes) return "processes";
  if (a.arrays_per_process != b.arrays_per_process) return "arrays";
  if (a.quantum_cycles != b.quantum_cycles) return "quantum_cycles";
  if (a.ldt_slot_budget != b.ldt_slot_budget) return "ldt_slot_budget";
  if (a.tenants != b.tenants) return "tenants";
  if (!(a.sched == b.sched)) return "sched";
  if (a.total_user_cycles != b.total_user_cycles) return "total_user_cycles";
  if (a.ldt_slots_installed != b.ldt_slots_installed)
    return "ldt_slots_installed";
  if (a.thrash_ratio != b.thrash_ratio) return "thrash_ratio";
  if (a.switch_overhead != b.switch_overhead) return "switch_overhead";
  return "";
}

std::string first_matrix_difference(const std::vector<TenantCell>& a,
                                    const std::vector<TenantCell>& b) {
  if (a.size() != b.size()) {
    return "cell count";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string diff = first_cell_difference(a[i], b[i]);
    if (!diff.empty()) {
      return "cell " + std::to_string(i) + ": " + diff;
    }
  }
  return "";
}

// The server program for the tenant-serving section: three request classes
// (three tenant processes) with different working-set shapes.
constexpr const char* kServerSource = R"(
int table[1024];
int *pool;
int server_init() {
  int i;
  for (i = 0; i < 1024; i++) {
    table[i] = i * 3 % 251;
  }
  pool = malloc(512);
  for (i = 0; i < 128; i++) {
    pool[i] = table[i * 8];
  }
  return 0;
}
int handle_request() {
  int buf[64];
  int i; int n; int s;
  n = rand() % 48 + 16;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 64] = table[(i * 7) % 1024] + pool[i % 128];
    s = s + buf[i % 64];
  }
  return s;
}
int handle_large() {
  int buf[64];
  int i; int n; int s;
  n = rand() % 64 + 128;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 64] = table[(i * 13) % 1024] + pool[(i * 3) % 128];
    s = s + buf[i % 64];
  }
  return s;
}
int handle_small() {
  int i; int s;
  s = 0;
  for (i = 0; i < 12; i++) {
    s = s + table[(i * 31) % 1024];
  }
  return s;
}
int main() { server_init(); return handle_request(); }
)";

} // namespace

int main(int argc, char** argv) {
  using namespace cash;
  using passes::CheckMode;

  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const bool multiproc_killed = std::getenv("CASH_NO_MULTIPROC") != nullptr;

  std::printf("Multi-process kernel: tenant pressure%s\n",
              quick ? " (smoke)" : "");
  std::printf("gates: jobs {1,2,hw} bit-identity over the tenant matrix,\n"
              "quantum invariance of unbudgeted per-tenant records, solo\n"
              "isolation under cross-tenant chaos, and tenant-serving\n"
              "determinism; any violation fails the bench (exit 1)\n");

  bool all_ok = true;
  bool jobs_identical = true;

  // --- Section 1: tenant matrix, jobs + quantum invariance ---------------
  const std::vector<int> procs = quick ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 2, 8};
  const std::vector<int> arrays = quick ? std::vector<int>{24}
                                        : std::vector<int>{32, 96};
  const std::vector<std::uint64_t> quanta =
      quick ? std::vector<std::uint64_t>{600, 6000}
            : std::vector<std::uint64_t>{600, 6000, 60000};
  TenantOptions base;
  base.rounds = quick ? 2 : 3;
  base.seed = 17;

  std::vector<int> jobs_values = {1, 2, 8, exec::resolve_jobs()};
  std::sort(jobs_values.begin(), jobs_values.end());
  jobs_values.erase(std::unique(jobs_values.begin(), jobs_values.end()),
                    jobs_values.end());

  std::vector<TenantCell> matrix;
  for (std::size_t j = 0; j < jobs_values.size(); ++j) {
    std::vector<TenantCell> run = workloads::run_tenant_matrix(
        procs, arrays, quanta, base, {jobs_values[j]});
    if (j == 0) {
      matrix = std::move(run);
      continue;
    }
    const std::string diff = first_matrix_difference(matrix, run);
    if (!diff.empty()) {
      std::fprintf(stderr, "jobs=%d matrix diverges from jobs=%d at %s\n",
                   jobs_values[j], jobs_values[0], diff.c_str());
      all_ok = jobs_identical = false;
    }
  }

  std::printf("\n%6s %7s %9s %10s %10s %9s %8s\n", "procs", "arrays",
              "quantum", "switches", "switch-ovh", "thrash", "slots");
  std::uint64_t total_user = 0, total_switch = 0;
  for (const TenantCell& cell : matrix) {
    total_user += cell.total_user_cycles;
    total_switch += cell.sched.context_switch_cycles;
    std::printf("%6d %7d %9llu %10llu %9.4f%% %8.4f %8llu\n", cell.processes,
                cell.arrays_per_process,
                (unsigned long long)cell.quantum_cycles,
                (unsigned long long)cell.sched.context_switches,
                cell.switch_overhead * 100.0, cell.thrash_ratio,
                (unsigned long long)cell.ldt_slots_installed);
  }
  const double switch_overhead =
      total_user + total_switch == 0
          ? 0.0
          : static_cast<double>(total_switch) /
                static_cast<double>(total_user + total_switch);
  std::printf("matrix context-switch overhead: %.4f%% of "
              "(user + switch) cycles\n",
              switch_overhead * 100.0);

  // Quantum invariance: unbudgeted per-tenant records are a pure function
  // of (seed, tenant index, arrays, rounds) — never of the quantum. The
  // matrix is processes-major, then arrays, then quanta, so the quanta for
  // one (procs, arrays) point are adjacent.
  bool quanta_invariant = true;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const std::size_t base_idx = (p * arrays.size() + a) * quanta.size();
      for (std::size_t q = 1; q < quanta.size(); ++q) {
        if (matrix[base_idx].tenants != matrix[base_idx + q].tenants) {
          std::fprintf(stderr,
                       "procs=%d arrays=%d: tenant records differ between "
                       "quantum %llu and %llu\n",
                       procs[p], arrays[a],
                       (unsigned long long)quanta[0],
                       (unsigned long long)quanta[q]);
          quanta_invariant = false;
        }
      }
    }
  }
  all_ok = all_ok && quanta_invariant;

  // Budgeted pressure point: a shared LDT slot budget far below aggregate
  // demand. Only the jobs gate applies (the budget couples tenants by
  // design); the cell must show real budget fallbacks, and those must be
  // what the thrash ratio is made of.
  TenantOptions pressured = base;
  pressured.processes = quick ? 4 : 8;
  pressured.arrays_per_process = quick ? 24 : 64;
  pressured.quantum_cycles = 2000;
  pressured.ldt_slot_budget = quick ? 40 : 96;
  TenantCell budget_cell = workloads::run_tenant_cell(pressured);
  for (std::size_t j = 1; j < jobs_values.size(); ++j) {
    // run_tenant_cell is serial; re-running it under a different ambient
    // jobs value exercises nothing, so instead gate the budgeted cell via
    // the matrix entry point at each jobs count.
    const std::vector<TenantCell> rerun = workloads::run_tenant_matrix(
        {pressured.processes}, {pressured.arrays_per_process},
        {pressured.quantum_cycles}, pressured, {jobs_values[j]});
    const std::string diff = first_cell_difference(budget_cell, rerun[0]);
    if (!diff.empty()) {
      std::fprintf(stderr, "budgeted cell diverges at jobs=%d on %s\n",
                   jobs_values[j], diff.c_str());
      all_ok = jobs_identical = false;
    }
  }
  std::uint64_t budget_fallbacks = 0;
  for (const TenantRecord& rec : budget_cell.tenants) {
    budget_fallbacks += rec.seg.budget_fallbacks;
  }
  if (budget_fallbacks == 0 || budget_cell.thrash_ratio <= 0.0) {
    std::fprintf(stderr,
                 "budget %llu never bound: %llu budget fallbacks, "
                 "thrash %.4f\n",
                 (unsigned long long)pressured.ldt_slot_budget,
                 (unsigned long long)budget_fallbacks,
                 budget_cell.thrash_ratio);
    all_ok = false;
  }
  if (budget_cell.ldt_slots_installed > pressured.ldt_slot_budget) {
    std::fprintf(stderr, "budget overrun: %llu slots installed, cap %llu\n",
                 (unsigned long long)budget_cell.ldt_slots_installed,
                 (unsigned long long)pressured.ldt_slot_budget);
    all_ok = false;
  }
  std::printf("budgeted cell (%d tenants, %llu-slot budget): "
              "thrash %.4f, %llu budget fallbacks, %llu slots live\n",
              pressured.processes,
              (unsigned long long)pressured.ldt_slot_budget,
              budget_cell.thrash_ratio, (unsigned long long)budget_fallbacks,
              (unsigned long long)budget_cell.ldt_slots_installed);

  // --- Section 2: isolation differential under cross-tenant chaos --------
  TenantOptions chaos = base;
  chaos.processes = 4;
  chaos.arrays_per_process = quick ? 24 : 48;
  chaos.quantum_cycles = 1500;
  chaos.tenant0_plan.rules.push_back(
      {faultinject::FaultSite::kLdtCrossTenant, 0, 2, 0, 1});
  const TenantCell chaos_cell = workloads::run_tenant_cell(chaos);
  bool isolation_ok = true;
  for (int i = 0; i < chaos.processes; ++i) {
    const TenantRecord& in_cell = chaos_cell.tenants[(std::size_t)i];
    if (in_cell.probe_self_failures != 0 ||
        in_cell.probe_rejections != in_cell.probe_attempts) {
      std::fprintf(stderr,
                   "tenant %d probe leak: %llu/%llu cross-process rejections,"
                   " %llu self failures\n",
                   i, (unsigned long long)in_cell.probe_rejections,
                   (unsigned long long)in_cell.probe_attempts,
                   (unsigned long long)in_cell.probe_self_failures);
      isolation_ok = false;
    }
    const TenantRecord solo = workloads::run_tenant_solo(chaos, i);
    if (i == 0) {
      // The armed tenant must actually degrade...
      if (in_cell.faults_injected == 0 || in_cell.seg.budget_fallbacks == 0) {
        std::fprintf(stderr,
                     "tenant 0 chaos never fired: %llu faults, %llu budget "
                     "fallbacks\n",
                     (unsigned long long)in_cell.faults_injected,
                     (unsigned long long)in_cell.seg.budget_fallbacks);
        isolation_ok = false;
      }
      // ...identically alone or in company.
      if (!(in_cell == solo)) {
        std::fprintf(stderr, "tenant 0 record differs from its solo run\n");
        isolation_ok = false;
      }
      continue;
    }
    // Neighbors of the chaotic tenant are bit-identical to a kernel they
    // have all to themselves.
    if (!(in_cell == solo)) {
      std::fprintf(stderr,
                   "tenant %d record differs from its solo baseline under "
                   "neighbor chaos\n",
                   i);
      isolation_ok = false;
    }
  }
  std::printf("\nisolation: tenant 0 armed ldt-cross-tenant (%llu faults, "
              "%llu fallbacks); neighbors %s solo baselines\n",
              (unsigned long long)chaos_cell.tenants[0].faults_injected,
              (unsigned long long)chaos_cell.tenants[0].seg.budget_fallbacks,
              isolation_ok ? "match" : "DIVERGE from");
  all_ok = all_ok && isolation_ok;

  // --- Section 3: multi-tenant serving per CheckMode ---------------------
  const int load = quick ? 80 : 600;
  netsim::ServeOptions tenanted;
  tenanted.classes = {{"small", "handle_small", 3},
                      {"bulk", "handle_large", 2},
                      {"web", "handle_request", 4}};
  tenanted.sim_servers = 2;
  tenanted.mean_interarrival_cycles = 2000;
  tenanted.tenant_processes = true;
  netsim::ServeOptions untenanted = tenanted;
  untenanted.tenant_processes = false;

  std::printf("\n%-5s %-7s %12s %10s %12s %14s\n", "mode", "class", "reqs",
              "switches", "check cyc", "switch cyc");
  struct ModeRow {
    const char* name;
    netsim::ServerMetrics tenants;
    netsim::ServerMetrics baseline;
  };
  const std::pair<const char*, CheckMode> kModes[] = {
      {"gcc", CheckMode::kNoCheck},
      {"bcc", CheckMode::kBcc},
      {"cash", CheckMode::kCash}};
  for (const auto& [mode_name, mode] : kModes) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult server = compile(kServerSource, options);
    if (!server.ok()) {
      std::fprintf(stderr, "%s compile failed: %s\n", mode_name,
                   server.error.c_str());
      return 1;
    }
    ModeRow row{mode_name, {}, {}};
    row.tenants = netsim::serve_requests(*server.program, load, 5, {},
                                         {}, tenanted);
    row.baseline = netsim::serve_requests(*server.program, load, 5, {},
                                          {}, untenanted);
    for (int jobs : {1, 2, 8}) {
      const netsim::ServerMetrics check = netsim::serve_requests(
          *server.program, load, 5, {jobs}, {}, tenanted);
      const std::string diff =
          netsim::first_metrics_difference(row.tenants, check);
      if (!diff.empty()) {
        std::fprintf(stderr,
                     "%s tenant serving jobs=%d diverges on %s\n",
                     mode_name, jobs, diff.c_str());
        all_ok = jobs_identical = false;
      }
    }
    const std::string vs_baseline =
        netsim::first_metrics_difference(row.tenants, row.baseline);
    if (multiproc_killed) {
      // $CASH_NO_MULTIPROC: tenant_processes must be a bit-exact no-op.
      if (!vs_baseline.empty()) {
        std::fprintf(stderr,
                     "%s: CASH_NO_MULTIPROC set but tenant serving still "
                     "differs from baseline on %s\n",
                     mode_name, vs_baseline.c_str());
        all_ok = false;
      }
    } else {
      // Mixed-class traffic on shared servers must actually switch, the
      // cost must be exactly kContextSwitch per switch, and nothing but
      // switch accounting and latency may move relative to the baseline.
      if (row.tenants.context_switches == 0 ||
          row.tenants.context_switch_cycles !=
              row.tenants.context_switches * costs::kContextSwitch) {
        std::fprintf(stderr, "%s: tenant serving mis-charged switches "
                             "(%llu switches, %llu cycles)\n",
                     mode_name,
                     (unsigned long long)row.tenants.context_switches,
                     (unsigned long long)row.tenants.context_switch_cycles);
        all_ok = false;
      }
      if (row.tenants.total_cpu_cycles != row.baseline.total_cpu_cycles ||
          row.tenants.checking_cycles != row.baseline.checking_cycles) {
        std::fprintf(stderr,
                     "%s: tenant scheduling perturbed handler cycles\n",
                     mode_name);
        all_ok = false;
      }
    }
    for (const netsim::ClassMetrics& c : row.tenants.classes) {
      std::printf("%-5s %-7s %12llu %10llu %12llu %14llu\n", mode_name,
                  c.name.c_str(), (unsigned long long)c.requests,
                  (unsigned long long)c.context_switches_in,
                  (unsigned long long)c.checking_cycles,
                  (unsigned long long)(c.context_switches_in *
                                       costs::kContextSwitch));
    }
    std::printf("%-5s %-7s %12d %10llu %12llu %14llu\n", mode_name, "all",
                row.tenants.requests,
                (unsigned long long)row.tenants.context_switches,
                (unsigned long long)row.tenants.checking_cycles,
                (unsigned long long)row.tenants.context_switch_cycles);
  }

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: multi-tenant determinism or isolation "
                         "contract violated\n");
    return 1;
  }
  std::printf("\nall tenant matrices and serving runs bit-identical; "
              "isolation holds\n");
  return 0;
}
