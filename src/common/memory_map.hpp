#pragma once

#include <cstdint>

// Memory map of the simulated process. The loader (vm) places globals,
// heap and stack here; the front end rejects any array that cannot fit its
// region, so no byte size computed from a declaration can wrap.
namespace cash {

inline constexpr std::uint32_t kGlobalsBase = 0x08100000;
inline constexpr std::uint32_t kHeapBase = 0x10000000; // globals end here
inline constexpr std::uint32_t kHeapLimit = 0xA0000000;
inline constexpr std::uint32_t kStackTop = 0xBF000000;
inline constexpr std::uint32_t kStackLimit = 0xBB000000; // 64 MB of stack

// The bytes of an array of `elem_count` 4-byte words plus the 3-word info
// structure that precedes it (Section 3.2), in 64 bits.
constexpr std::uint64_t array_footprint(std::uint32_t elem_count) noexcept {
  return std::uint64_t{elem_count} * 4 + 12;
}

} // namespace cash
