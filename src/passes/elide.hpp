#pragma once

#include <cstdint>

#include "ir/function.hpp"
#include "passes/lower.hpp"

namespace cash::passes {

// Whole-program bounds-check elision (the classic software answer the paper
// contrasts segmentation hardware with, §3.6 / Gupta [15,16] / CHOP-style
// range analysis). Runs between `optimize` and `lower` on front-end IR: it
// computes symbolic ranges for address values — constants, affine functions
// of loop induction variables (via ir/natural_loops + ir/dominators), and
// interval bounds for masked or divided indices — and then marks memory
// accesses whose checks are provably redundant with `Instr::check_elided`,
// so lowering emits no instrumentation for them (for Cash, an array whose
// qualifying accesses all elide also stops claiming a segment register and
// its hoisted segment load disappears; see cash_segment_candidates()).
//
// Two transformations, in order:
//  (a) delete  — an access whose address provably stays inside its object
//                ([0, 4n) for an n-element word array);
//  (b) hoist   — a monotone counted loop's per-iteration checks collapse to
//                one preheader *interval* check of the two extremal
//                addresses (kBoundCheck* with src1 set; an empty range —
//                lo > hi at run time, the zero-trip loop — passes, so the
//                hoisted check can never fault when the loop body would not
//                have).
// Between them, Cash predicts which arrays will hold a segment register;
// their accesses keep the free hardware check and are never hoisted.
//
// The invariant is *fault identity*, not cycle identity: an elided program
// produces bit-identical output on every fault-free run, and catches a
// bound violation (vm::FaultKind::kBoundRange) whenever the baseline does —
// possibly earlier (a hoisted check fires in the preheader) and therefore
// at a different reported address. ElideKernelGrid, ElideFaultIdentity and
// the fuzz matrix enforce this differentially against the same program with
// elision off.
struct ElideStats {
  std::uint64_t checks_deleted{0};   // (a): accesses proven in-bounds
  std::uint64_t checks_hoisted{0};   // (b): accesses covered by a preheader
                                     // interval check
  std::uint64_t checks_widened{0};   // always 0; perfbench's digest prints it
  std::uint64_t hoist_checks_inserted{0}; // interval checks emitted by (b)
  std::uint64_t widen_checks_inserted{0}; // always 0; as checks_widened

  std::uint64_t checks_removed() const noexcept {
    return checks_deleted + checks_hoisted;
  }
};
#define CASH_ELIDE_STATS_FIELDS(X, HOST)                                  \
  X(checks_deleted) X(checks_hoisted) X(checks_widened)                   \
  X(hoist_checks_inserted) X(widen_checks_inserted)
CASH_STATS_SCHEMA(ElideStats, CASH_ELIDE_STATS_FIELDS)
inline ElideStats& operator+=(ElideStats& a, const ElideStats& b) {
  return stats::add_fields(a, b);
}

// Applies check elision to the module in place. `options.mode` decides which
// accesses would be checked at all (Cash only checks in-loop references;
// security-only mode skips reads) — elision never touches an access the
// mode would not instrument. A no-op for kNoCheck/kEfence.
ElideStats elide_module(ir::Module& module, const LowerOptions& options);

// Per-function entry point (exposed for targeted tests). `module` provides
// global-array extents.
ElideStats elide_function(ir::Module& module, ir::Function& function,
                          const LowerOptions& options);

} // namespace cash::passes
