#pragma once

// gtest adapter over the shared comparator in
// src/common/run_result_compare.hpp: asserts full simulated-field
// equality and, on failure, names the first diverging field.

#include <gtest/gtest.h>

#include <string>

#include "common/run_result_compare.hpp"

namespace cash::vm {

inline void expect_identical(const RunResult& ref, const RunResult& fast,
                             const std::string& ctx) {
  const std::string diff = first_run_result_difference(ref, fast);
  EXPECT_TRUE(diff.empty()) << ctx << ": first diverging field: " << diff;
}

} // namespace cash::vm
