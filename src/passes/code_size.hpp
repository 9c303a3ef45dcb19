#pragma once

#include <cstdint>

#include "common/stats_schema.hpp"
#include "ir/function.hpp"
#include "passes/lower.hpp"

namespace cash::passes {

// Static binary-size model for Tables 2, 6 and the space column of Table 8.
//
// The paper measures statically linked binaries, so the dominant term is the
// (re)compiled C library: vanilla for GCC, recompiled with 2-word pointers
// for Cash, recompiled with 3-word pointers and per-reference checks for
// BCC. The application's own code contributes the per-mode instrumentation:
// check sequences (BCC), segment prologue/epilogue code and hoisted loads
// (Cash), and extra pointer-word copies (both).
struct CodeSize {
  std::uint64_t total_bytes{0};
  std::uint64_t app_bytes{0};
  std::uint64_t library_bytes{0};
};
#define CASH_CODE_SIZE_FIELDS(X, HOST) \
  X(total_bytes) X(app_bytes) X(library_bytes)
CASH_STATS_SCHEMA(CodeSize, CASH_CODE_SIZE_FIELDS)

// Library contribution per mode, calibrated against the paper's static-link
// measurements (GCC micro binaries ~360-420 KB of which almost all is libc).
inline constexpr std::uint64_t kLibraryBytesGcc = 360'000;
inline constexpr std::uint64_t kLibraryBytesCash = 460'000;  // ~+28 %
inline constexpr std::uint64_t kLibraryBytesBcc = 800'000;   // ~+122 %

CodeSize estimate_code_size(const ir::Module& module,
                            const LowerOptions& options);

} // namespace cash::passes
