#pragma once

#include <cstdint>
#include <vector>

#include "common/stats_schema.hpp"
#include "ir/function.hpp"
#include "passes/array_use.hpp"

namespace cash::passes {

// The bound-checking strategy applied to front-end IR. All modes share the
// same front end; only the lowering differs (Section 4.1's GCC/BCC/Cash
// triple, plus two related-work ablations).
enum class CheckMode : std::uint8_t {
  kNoCheck,   // vanilla GCC: no checks at all
  kBcc,       // BCC: 6-instruction software check on every array reference
  kCash,      // Cash: segment-limit hardware checks + software fallback
  kBoundInsn, // ablation: x86 `bound` instruction (7 cycles) per reference
  kEfence,    // ablation: Electric-Fence guard pages (runtime-only; the
              //   lowering inserts no checks)
  kShadow,    // related work [6]: concurrent checking on a shadow processor
              //   (the main CPU only enqueues addresses; a derived program
              //   with all the checks runs in parallel)
};

const char* to_string(CheckMode mode) noexcept;

struct LowerOptions {
  CheckMode mode{CheckMode::kCash};
  // Number of segment registers available for array bound checking:
  // 2 (ES,FS), 3 (ES,FS,GS — the prototype default), or 4 (+SS after the
  // PUSH/POP rewriting of Section 3.7).
  int num_seg_regs{3};
  // Security-only mode (Section 3.8): skip checking read accesses.
  bool check_reads{true};
  // Gupta-style redundant check elimination (related work [15,16]): within
  // a basic block, an address already checked need not be checked again.
  // Applies to the software-check modes (kBcc/kBoundInsn/kShadow).
  bool eliminate_redundant_checks{false};
  // Whole-program check elision (passes/elide.hpp): run range analysis
  // between optimise and lower, and drop or hoist checks proven redundant.
  // Off by default — it changes simulated cycles by design.
  bool elide_checks{false};
};

// Static instrumentation statistics, accumulated across functions. These are
// the "HW/SW Checks" numbers of Table 1.
struct LowerStats {
  std::uint64_t hw_checks{0};        // references routed through a segment
  std::uint64_t sw_checks{0};        // kBoundCheckSw / kBoundCheckBnd sites
  std::uint64_t unchecked_refs{0};   // refs Cash leaves unchecked (outside
                                     // loops, or reads in security-only mode)
  std::uint64_t seg_loads{0};        // hoisted segment-register loads
  std::uint64_t redundant_eliminated{0}; // checks removed as redundant
  std::uint64_t outer_loops{0};
  std::uint64_t spilled_outer_loops{0}; // outer nests with > N arrays
  std::uint64_t elided_refs{0};      // refs the elision pass proved in-bounds
                                     // (lowered with no instrumentation)
};
#define CASH_LOWER_STATS_FIELDS(X, HOST)                                  \
  X(hw_checks) X(sw_checks) X(unchecked_refs) X(seg_loads)                \
  X(redundant_eliminated) X(outer_loops) X(spilled_outer_loops)           \
  X(elided_refs)
CASH_STATS_SCHEMA(LowerStats, CASH_LOWER_STATS_FIELDS)
inline LowerStats& operator+=(LowerStats& a, const LowerStats& b) {
  return stats::add_fields(a, b);
}

// Applies the selected checking strategy to the module, in place.
LowerStats lower_module(ir::Module& module, const LowerOptions& options);

// Per-function entry point (exposed for targeted tests).
LowerStats lower_function(ir::Function& function, const LowerOptions& options);

// The arrays that claim a segment register in this outer nest under Cash, in
// FCFS order: every array with at least one qualifying (mode-relevant,
// not-elided) access in the nest. `use` is analyze_loop()'s result for the
// nest; the list is written to `candidates`, reusing its storage. Shared
// between the Cash lowering and the elision pass so elision predicts segment
// assignment exactly — an array whose accesses were all proven in-bounds
// stops consuming a register (and its hoisted segment load disappears).
void cash_segment_candidates(const ir::Function& function,
                             const ir::Loop& loop, const LoopArrays& use,
                             const LowerOptions& options,
                             std::vector<ir::SymbolId>& candidates);

} // namespace cash::passes
