#pragma once

// Full-RunResult equality shared by the fast-path transparency suites
// (decode_test, engine_grid_test, snapshot_test) and the bench_elide
// divergence gate: every simulated field must
// match bit-for-bit. Mirrors netsim::first_metrics_difference — the
// comparator names the first diverging field, so a failing gate says
// *what* drifted, not just that something did.
//
// Documented exemptions (host-side only, never compared):
//   - tlb_stats    — software-TLB hit/miss counters
//   - trace_stats  — hot-trace engine counters (DESIGN.md §11)
//   - elide_stats  — static per-program metadata, identical by construction
// Adding a RunResult field to first_run_result_difference() is what puts
// it under the bit-identity contract.

#include <string>

#include "vm/machine.hpp"

namespace cash::vm {

// Returns the name of the first differing simulated field ("cycles",
// "counters.sw_checks", "profile[fn].self_cycles", ...), or an empty
// string when the two results are identical.
std::string first_run_result_difference(const RunResult& a,
                                        const RunResult& b);

} // namespace cash::vm
