#pragma once

#include <cstdint>
#include <string_view>

#include "common/stats_schema.hpp"
#include "ir/function.hpp"

namespace cash::passes {

// Static program characteristics, reproducing the columns of Tables 4 and 7:
// lines of code, number of array-using loops, and number of loops that use
// more than `seg_reg_budget` distinct arrays ("spilled loops").
struct ProgramStats {
  std::uint64_t lines_of_code{0};
  std::uint64_t total_loops{0};
  std::uint64_t array_using_loops{0};
  std::uint64_t loops_over_budget{0}; // > seg_reg_budget distinct arrays
  std::uint64_t max_arrays_in_loop{0};
  std::uint64_t total_functions{0};
  std::uint64_t total_array_refs{0};
};
#define CASH_PROGRAM_STATS_FIELDS(X, HOST)                                \
  X(lines_of_code) X(total_loops) X(array_using_loops)                    \
  X(loops_over_budget) X(max_arrays_in_loop) X(total_functions)           \
  X(total_array_refs)
CASH_STATS_SCHEMA(ProgramStats, CASH_PROGRAM_STATS_FIELDS)

ProgramStats compute_program_stats(const ir::Module& module,
                                   std::string_view source,
                                   int seg_reg_budget = 3);

} // namespace cash::passes
