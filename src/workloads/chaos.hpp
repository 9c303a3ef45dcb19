#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "faultinject/faultinject.hpp"

namespace cash::workloads {

// One named fault-injection scenario of the chaos matrix. Plans that
// exercise the heap-allocation site run a dedicated malloc-churn program
// (the fuzz generator never calls malloc); every other plan runs the
// seed's fuzz program.
struct ChaosPlanSpec {
  std::string name;
  faultinject::FaultPlan plan;
  bool uses_heap_program{false};
};

// The canonical scenario list, "baseline" (empty plan — must be
// bit-transparent, cycles included) first.
const std::vector<ChaosPlanSpec>& chaos_plans();

// One (seed, plan) cell of the matrix. The chaos contract: every injected
// run either completes with the reference output (possibly degraded — a
// global-segment fallback or a gate-busy retry) or reports a precise
// structured fault. A host crash, an untyped error, or wrong output is a
// violation.
struct ChaosCell {
  std::uint32_t seed{0};
  std::string plan;
  bool completed{false};      // ran to completion
  bool output_matches{false}; // output identical to the clean reference
  bool degraded{false};       // completed via fallback / retry paths
  bool faulted{false};        // reported a structured Fault
  std::uint64_t faults_injected{0};
  std::uint64_t cycles{0};
  std::string detail;         // fault rendering or violation description

  bool ok() const noexcept {
    return (completed && output_matches) || faulted;
  }
  bool operator==(const ChaosCell&) const = default;
};

// Matrix-level aggregate. `violations` counts cells that broke the
// contract; the report orders cells by (seed, plan index) and is
// bit-identical for any thread count.
struct ChaosReport {
  std::vector<ChaosCell> cells;
  std::uint64_t completed{0};
  std::uint64_t degraded{0};
  std::uint64_t faulted{0};
  std::uint64_t faults_injected{0};
  std::uint64_t violations{0};

  bool ok() const noexcept { return violations == 0; }
  // Appends `cell` and counts it into the aggregates.
  void add(ChaosCell cell);
  bool operator==(const ChaosReport&) const = default;
};

// Runs every (seed in [seed_begin, seed_end)) x chaos_plans() cell, fanned
// out across host threads per `executor` ($CASH_JOBS; jobs=1 is the serial
// path). Each cell compiles the program once (Cash mode), runs it clean as
// the reference, then runs it under the plan (plan seed offset by the cell
// seed) and checks the chaos contract.
ChaosReport run_chaos_matrix(std::uint32_t seed_begin, std::uint32_t seed_end,
                             const exec::ExecutorConfig& executor = {});

} // namespace cash::workloads
