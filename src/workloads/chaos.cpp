#include "workloads/chaos.hpp"

#include "common/diagnostics.hpp"
#include "core/cash.hpp"
#include "workloads/fuzz.hpp"

namespace cash::workloads {

namespace {

using faultinject::FaultPlan;
using faultinject::FaultRule;
using faultinject::FaultSite;

// Malloc-churn workload for the kHeapAlloc site: repeated malloc/free pairs
// (feeding the 3-entry segment cache) plus a tail of live allocations. The
// fuzz generator never calls malloc, so the heap plans need their own
// program. Deterministic and in-bounds: with no injection it always prints
// the same sum.
constexpr const char* kHeapChurnProgram = R"(
int churn(int n) {
  int *p;
  int i;
  int acc = 0;
  p = malloc(n * 4);
  for (i = 0; i < n; i = i + 1) {
    p[i] = i * 3;
  }
  for (i = 0; i < n; i = i + 1) {
    acc = acc + p[i];
  }
  free(p);
  return acc;
}

int main() {
  int round;
  int sum = 0;
  for (round = 0; round < 12; round = round + 1) {
    sum = sum + churn(8 + (round & 3) * 4);
  }
  print_int(sum);
  return sum;
}
)";

FaultPlan make_plan(std::vector<FaultRule> rules, std::uint32_t seed = 0) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules = std::move(rules);
  return plan;
}

ChaosCell run_cell(std::uint32_t seed, const ChaosPlanSpec& spec) {
  ChaosCell cell;
  cell.seed = seed;
  cell.plan = spec.name;
  try {
    const std::string source =
        spec.uses_heap_program ? std::string(kHeapChurnProgram)
                               : generate_fuzz_program(seed);
    CompileOptions options;
    options.lower.mode = passes::CheckMode::kCash;
    CompileResult compiled = compile(source, options);
    if (!compiled.ok()) {
      cell.detail = "compile failed: " + compiled.error;
      return cell;
    }

    // Clean reference: same program, no plan.
    const vm::RunResult reference = compiled.program->run();
    if (!reference.ok) {
      cell.detail = "reference run failed: " +
                    (reference.fault ? reference.fault->detail
                                     : reference.error);
      return cell;
    }

    vm::MachineConfig cfg = compiled.program->options().machine;
    cfg.fault_plan = spec.plan;
    cfg.fault_plan.seed = spec.plan.seed + seed;
    const vm::RunResult injected =
        compiled.program->make_machine(cfg)->run();

    cell.faults_injected = injected.fault_stats.total();
    cell.cycles = injected.cycles;
    if (injected.ok) {
      cell.completed = true;
      cell.output_matches = injected.output == reference.output &&
                            injected.exit_code == reference.exit_code;
      cell.degraded = injected.segment_stats.global_fallbacks >
                          reference.segment_stats.global_fallbacks ||
                      injected.segment_stats.gate_busy_retries > 0;
      if (!cell.output_matches) {
        cell.detail = "output diverged from clean reference";
      } else if (spec.plan.empty() &&
                 injected.cycles != reference.cycles) {
        // The baseline plan must be bit-transparent, cycles included.
        cell.output_matches = false;
        cell.detail = "empty plan perturbed cycles: " +
                      std::to_string(reference.cycles) + " -> " +
                      std::to_string(injected.cycles);
      }
    } else if (injected.fault.has_value()) {
      cell.faulted = true;
      cell.detail = format_fault(*injected.fault);
    } else {
      cell.detail = "untyped error: " + injected.error;
    }
  } catch (const std::exception& e) {
    cell.detail = std::string("host exception escaped: ") + e.what();
  } catch (...) {
    cell.detail = "unknown host exception escaped";
  }
  return cell;
}

} // namespace

const std::vector<ChaosPlanSpec>& chaos_plans() {
  static const std::vector<ChaosPlanSpec> plans = [] {
    std::vector<ChaosPlanSpec> out;
    // Bit-transparency control: the empty plan must change nothing.
    out.push_back({"baseline", FaultPlan{}, false});
    // Every allocation degrades to the unchecked global segment.
    out.push_back({"ldt-exhaust",
                   make_plan({{FaultSite::kSegAllocate, 0, 1, 0, 1}}),
                   false});
    // Every third allocation (after the first) falls back.
    out.push_back({"ldt-intermittent",
                   make_plan({{FaultSite::kSegAllocate, 1, 3, 0, 1}}),
                   false});
    // The 3-entry recently-freed cache never hits.
    out.push_back({"cache-bypass",
                   make_plan({{FaultSite::kSegCacheProbe, 0, 1, 0, 1}}),
                   false});
    // Every other call gate entry bounces once: retried with backoff.
    out.push_back({"gate-busy",
                   make_plan({{FaultSite::kCallGateBusy, 0, 2, 0, 1}}),
                   false});
    // The gate is jammed solid: retries exhaust, allocations degrade.
    out.push_back({"gate-jam",
                   make_plan({{FaultSite::kCallGateBusy, 0, 1, 0, 1}}),
                   false});
    // The frame pool dries up early in the run: precise structured fault.
    out.push_back({"phys-squeeze",
                   make_plan({{FaultSite::kPhysFrameAlloc, 1, 1, 0, 1}}),
                   false});
    // The fourth malloc fails: structured heap-exhaustion fault.
    out.push_back({"heap-oom",
                   make_plan({{FaultSite::kHeapAlloc, 3, 1, 0, 1}}),
                   true});
    // Co-tenants drained the shared LDT slot budget: every other fresh
    // install is refused inside the kernel and degrades to the unchecked
    // global segment (the multi-tenant budget-fallback path).
    out.push_back({"ldt-cross-tenant",
                   make_plan({{FaultSite::kLdtCrossTenant, 0, 2, 0, 1}}),
                   false});
    return out;
  }();
  return plans;
}

ChaosReport run_chaos_matrix(std::uint32_t seed_begin, std::uint32_t seed_end,
                             const exec::ExecutorConfig& executor) {
  ChaosReport report;
  if (seed_end <= seed_begin) {
    return report;
  }
  const std::vector<ChaosPlanSpec>& plans = chaos_plans();
  const std::size_t num_seeds = seed_end - seed_begin;
  const std::size_t num_cells = num_seeds * plans.size();

  // Independent (seed, plan) cells, index-ordered slots: the report is a
  // pure function of the seed range, never of thread scheduling.
  std::vector<ChaosCell> cells = exec::parallel_map(
      num_cells, executor.jobs, [&](std::size_t index) {
        const std::uint32_t seed =
            seed_begin + static_cast<std::uint32_t>(index / plans.size());
        return run_cell(seed, plans[index % plans.size()]);
      });
  for (ChaosCell& cell : cells) {
    report.add(std::move(cell));
  }
  return report;
}

void ChaosReport::add(ChaosCell cell) {
  faults_injected += cell.faults_injected;
  if (!cell.ok()) {
    ++violations;
  } else if (cell.faulted) {
    ++faulted;
  } else {
    ++completed;
    if (cell.degraded) {
      ++degraded;
    }
  }
  cells.push_back(std::move(cell));
}

} // namespace cash::workloads
