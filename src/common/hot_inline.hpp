#pragma once

// Forces a hot helper inline. GCC stops inlining into a function as large
// as the micro-op engine's dispatch loop (vm/decode.cpp) even for helpers
// it inlines everywhere else; an out-of-line call on every simulated load
// and store costs that loop ~40% on load/store-heavy kernels.
#if defined(__GNUC__) || defined(__clang__)
#define CASH_HOT_INLINE __attribute__((always_inline))
#else
#define CASH_HOT_INLINE
#endif
