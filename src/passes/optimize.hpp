#pragma once

#include <cstdint>

#include "common/stats_schema.hpp"
#include "ir/function.hpp"

namespace cash::passes {

// Classic scalar optimisations applied before check lowering, to all modes
// alike — the paper compiles everything at GCC's highest optimisation level,
// and relative checking overheads only mean anything against a lean
// baseline. Four sub-passes, iterated:
//
//   1. strength reduction   (x * 2^k -> x << k; x * 0/1 simplification)
//   2. local value numbering (CSE of pure ops within a basic block)
//   3. loop-invariant code motion (pure single-def ops hoisted to the
//      preheader — exactly the hoisting Section 3.3 relies on for the
//      segment-load and base-subtraction instructions)
//   4. dead code elimination (pure ops whose result is never used)
//
// The IR is not SSA; the passes restrict themselves to registers defined
// exactly once (the front end emits expression temporaries that way), which
// keeps them sound without phi nodes.
struct OptStats {
  std::uint64_t strength_reduced{0};
  std::uint64_t cse_replaced{0};
  std::uint64_t copies_propagated{0};
  std::uint64_t hoisted{0};
  std::uint64_t dead_removed{0};
};
#define CASH_OPT_STATS_FIELDS(X, HOST)                                    \
  X(strength_reduced) X(cse_replaced) X(copies_propagated) X(hoisted)     \
  X(dead_removed)
CASH_STATS_SCHEMA(OptStats, CASH_OPT_STATS_FIELDS)
inline OptStats& operator+=(OptStats& a, const OptStats& b) {
  return stats::add_fields(a, b);
}

OptStats optimize_function(ir::Function& function);
OptStats optimize_module(ir::Module& module);

} // namespace cash::passes
