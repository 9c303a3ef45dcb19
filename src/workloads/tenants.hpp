#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor.hpp"
#include "faultinject/faultinject.hpp"
#include "kernel/kernel_sim.hpp"
#include "runtime/segment_manager.hpp"

namespace cash::workloads {

// Multi-tenant pressure workload (DESIGN.md §10): N simulated processes on
// one shared KernelSim, scheduled round-robin over a common quantum, each
// churning its own arrays through its own SegmentManager. Measures what the
// paper's per-array LDT economics look like when many tenants contend for
// descriptor slots: LDT exhaustion, segment-cache thrash, gate contention
// and context-switch overhead.

struct TenantOptions {
  int processes{4};
  int arrays_per_process{64};
  std::uint64_t quantum_cycles{4096};
  int rounds{3};
  // Kernel-wide cap on installed LDT entries shared by every tenant
  // (0 = unlimited). When it binds, installs degrade to the unchecked
  // global segment (SegmentManager budget fallback).
  std::uint64_t ldt_slot_budget{0};
  std::uint32_t seed{1};
  // Fault plan armed on tenant 0 only (its injector seed is tenant 0's
  // tenant_seed). Neighbors stay unarmed — the isolation differential.
  faultinject::FaultPlan tenant0_plan;
};

// Tenant-attributable record. With ldt_slot_budget == 0 this is a pure
// function of (options.seed, tenant index, arrays_per_process, rounds) and
// that tenant's own fault plan: independent of neighbor count, neighbor
// chaos and the scheduling quantum. That invariance is the isolation
// property the conformance suite gates (TenantIsolation.*,
// TenantMatrixBitIdentical.*). (A binding shared budget intentionally
// couples tenants — which install crosses the budget line depends on the
// interleaving — so budgeted cells are only gated for host-parallelism
// bit-identity, not quantum invariance.)
struct TenantRecord {
  std::uint32_t tenant_seed{0};
  std::uint64_t user_cycles{0}; // op cycles; excludes context switches
  runtime::SegmentManager::Stats seg;
  std::uint64_t live_segments{0};      // live allocations at end of run
  std::uint64_t probe_attempts{0};     // cross-process resolves attempted
  std::uint64_t probe_rejections{0};   // ... refused by the kernel (#GP)
  std::uint64_t probe_self_failures{0}; // own-process resolves that failed
  std::uint64_t faults_injected{0};
  std::uint32_t state_hash{0}; // FNV over the live selector words + stats

  bool operator==(const TenantRecord&) const = default;
};

// One (processes x arrays_per_process x quantum) cell.
struct TenantCell {
  int processes{0};
  int arrays_per_process{0};
  std::uint64_t quantum_cycles{0};
  std::uint64_t ldt_slot_budget{0};
  std::vector<TenantRecord> tenants;
  kernel::SchedulerStats sched;
  std::uint64_t total_user_cycles{0};
  std::uint64_t ldt_slots_installed{0};
  // Allocation requests that degraded to the unchecked global segment,
  // over all requests: the headline tenant-pressure metric.
  double thrash_ratio{0.0};
  // Context-switch cycles over (user + context-switch) cycles.
  double switch_overhead{0.0};

  // Exact, doubles included: both sides derive them from the same integer
  // aggregates, so any drift is a determinism bug, not rounding.
  bool operator==(const TenantCell&) const = default;
};

// Runs one cell on a fresh shared kernel. Deterministic: a pure function
// of `options`.
TenantCell run_tenant_cell(const TenantOptions& options);

// Runs tenant `tenant_index` alone on its own kernel with the same options
// (same tenant seed derivation, same probe protocol) — the solo baseline
// the isolation differential compares against. The tenant0_plan is armed
// only when tenant_index == 0.
TenantRecord run_tenant_solo(const TenantOptions& options, int tenant_index);

// Sweeps the full matrix, fanning cells across host threads. Cell order is
// processes-major, then arrays, then quanta; the result is bit-identical
// for every jobs value.
std::vector<TenantCell> run_tenant_matrix(
    const std::vector<int>& processes,
    const std::vector<int>& arrays_per_process,
    const std::vector<std::uint64_t>& quanta, const TenantOptions& base,
    const exec::ExecutorConfig& executor = {});

} // namespace cash::workloads
