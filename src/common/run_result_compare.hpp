#pragma once

// Full-RunResult equality shared by the fast-path transparency suites
// (decode_test, determinism_test, engine_grid_test, faultinject_test,
// snapshot_test, vm_test): every simulated field must match bit-for-bit.
// Mirrors netsim::first_metrics_difference — the comparator names the first
// diverging field, so a failing gate says *what* drifted, not just that
// something did.
//
// RunResult's schema (CASH_RUN_RESULT_FIELDS in vm/machine.hpp, and the
// lists of the structs it nests) decides what is compared: host-only
// fields are marked HOST in the list, and every other field is compared.
// The host-only ones are tlb_stats (software-TLB hit/miss counters) and
// trace_stats (hot-trace engine counters, DESIGN.md §11). A new member
// fails the build until its list names it (common/stats_schema.hpp), so it
// is under the contract unless it is marked HOST.

#include <string>

#include "common/stats_schema.hpp"
#include "vm/machine.hpp"

namespace cash::vm {

// Returns the path of the first differing simulated field ("cycles",
// "counters.sw_checks", "fault.kind", "profile[fn].self_cycles", ...), or
// an empty string when the two results are identical.
inline std::string first_run_result_difference(const RunResult& a,
                                               const RunResult& b) {
  return stats::first_difference(a, b);
}

} // namespace cash::vm
