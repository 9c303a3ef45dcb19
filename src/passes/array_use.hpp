#pragma once

#include <vector>

#include "ir/function.hpp"

namespace cash::passes {

// Per-loop array usage, the input to Cash's first-come-first-serve segment
// register allocation (Section 3.7) and to the spilled-loop statistics of
// Tables 4 and 7.
struct LoopArrays {
  ir::LoopId loop{ir::kNoLoop};
  int depth{1};
  // Distinct array symbols referenced by memory accesses anywhere in this
  // loop (nested loops included), in first-occurrence (FCFS) order.
  std::vector<ir::SymbolId> arrays;
  // Subset of `arrays` whose pointer is re-seated to a different object
  // inside the loop — unsafe to hoist a segment load for.
  std::vector<ir::SymbolId> reassigned;
};

// Analyses every loop in the function (any depth).
std::vector<LoopArrays> analyze_loops(const ir::Function& function);

// Analyses one loop (with its whole nest).
LoopArrays analyze_loop(const ir::Function& function, const ir::Loop& loop);

// The same, into `out`, reusing its vectors' storage.
void analyze_loop(const ir::Function& function, const ir::Loop& loop,
                  LoopArrays& out);

} // namespace cash::passes
